package hier

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// masterCase is one scripted run: the slaves are played by the test
// itself, one request per live worker per round in a fixed order, so
// grant order and stage events are deterministic.
type masterCase struct {
	name   string
	scheme string
	n      int
	shards [][]int   // member run-global ids per shard; one shard = flat
	powers []float64 // virtual power per run-global worker
}

// stageEvents collects the stage and grant events, a prefetched grant
// as the grant it is.
type stageEvents struct {
	mu  sync.Mutex
	log []string
}

func (s *stageEvents) BeginRun(telemetry.RunMeta) {}
func (s *stageEvents) Close() error               { return nil }
func (s *stageEvents) OnEvent(e telemetry.Event) {
	switch e.Kind {
	case telemetry.ChunkPrefetched:
		e.Kind = telemetry.ChunkGranted
	case telemetry.StageAdvanced, telemetry.ChunkGranted:
	default:
		return
	}
	s.mu.Lock()
	s.log = append(s.log, fmt.Sprintf("event %v w=%d shard=%d %d+%d acp=%d span=%#x",
		e.Kind, e.Worker, e.Shard, e.Start, e.Size, e.ACP, e.Span))
	s.mu.Unlock()
}

// rootSource stages, for shard si, the super-chunks root grants it.
type rootSource struct {
	root *Root
	si   int
	bus  *telemetry.Bus
	done bool
}

func (s *rootSource) Take() (int, int, bool) {
	g, ok := s.root.Next(s.si)
	if s.done = !ok; !ok {
		return 0, 0, false
	}
	s.bus.Publish(telemetry.Event{Kind: telemetry.StageAdvanced, Shard: s.si, Start: g.Start, Size: g.Size(), At: s.bus.Now()})
	return g.Start, g.Size(), true
}
func (s *rootSource) Fetch(int) error            { return nil }
func (s *rootSource) Exhausted() bool            { return s.done }
func (s *rootSource) Forward([]exec.ChunkResult) {}

// playMasters drives c on exec masters — flat: one over the whole loop;
// sharded: a shard master per shard staging a Root's super-chunks —
// each worker over a memory link, one-credit prefetches that ship the
// last chunk's results and never park, and returns the transcript:
// every grant in order, then every stage/grant event in publish order.
func playMasters(t *testing.T, c masterCase) string {
	t.Helper()
	scheme, err := sched.Lookup(c.scheme)
	if err != nil {
		t.Fatal(err)
	}
	bus := telemetry.NewBus(0)
	ev := &stageEvents{}
	bus.Subscribe(ev)
	flat := len(c.shards) == 1
	var root *Root
	if !flat {
		shardPowers := make([]float64, len(c.shards))
		for si, members := range c.shards {
			for _, id := range members {
				shardPowers[si] += c.powers[id]
			}
		}
		if root, err = NewRoot(c.n, shardPowers, Config{}.withDefaults(c.n, len(c.powers))); err != nil {
			t.Fatal(err)
		}
		root.SetTelemetry(bus)
	}
	p := len(c.powers)
	links, slot := make([]exec.Link, p), make([]int, p)
	for si, members := range c.shards {
		var m *exec.Master
		if flat {
			m, err = exec.NewMaster(scheme, c.n, p)
		} else {
			m, err = exec.NewShardMaster(scheme, c.n, si, members, &rootSource{root: root, si: si, bus: bus})
		}
		if err != nil {
			t.Fatal(err)
		}
		m.SetTelemetry(bus)
		powers := make([]float64, len(members))
		for li, id := range members {
			powers[li] = c.powers[id]
			links[id], slot[id] = m.Link(), li
		}
		if err := m.SetPowers(powers); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	held := make([]sched.Assignment, p)
	stopped := make([]bool, p)
	for round, live := 0, p; live > 0; round++ {
		if round > 1000 {
			t.Fatal("the run never ended")
		}
		for si, members := range c.shards {
			for _, id := range members {
				if stopped[id] {
					continue
				}
				req := wire.Request{Worker: slot[id], ACP: int(10 * c.powers[id]), Prefetch: true, Credits: 1}
				if a := held[id]; a.Size > 0 {
					req.Results = []wire.Record{{Index: a.Start, Count: a.Size}}
					req.CompSeconds = float64(a.Size) / c.powers[id]
				}
				var rep wire.Reply
				if err := links[id].Call(&req, &rep); err != nil {
					t.Fatal(err)
				}
				held[id] = sched.Assignment{}
				switch {
				case rep.Stop:
					stopped[id] = true
					live--
				case len(rep.Grants) > 0:
					held[id] = rep.Grants[0]
					out = append(out, fmt.Sprintf("reply r%d s%d w%d %d+%d", round, si, id, held[id].Start, held[id].Size))
				}
			}
		}
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	out = append(out, ev.log...)
	return "== " + c.name + "\n" + strings.Join(out, "\n") + "\n"
}

// byShard orders a transcript's events by shard, keeping each shard's
// own order: a shard master stages its first super-chunk when it is
// built, not on its first request, so only the interleaving across
// shards moved.
func byShard(transcript string) string {
	lines := strings.Split(transcript, "\n")
	shard := func(l string) string {
		if !strings.HasPrefix(l, "event ") {
			return ""
		}
		return strings.Fields(l)[3]
	}
	slices.SortStableFunc(lines, func(a, b string) int { return strings.Compare(shard(a), shard(b)) })
	return strings.Join(lines, "\n")
}

// TestChannelMasterMatchesReplacedMasters replays scripted runs through
// the master that replaced the channel master — the local backend's, and
// every shard's — and requires every grant, StageAdvanced and grant
// event recorded at commit 42d7c97 from the masters the channel master
// had replaced in turn (the old local executor's master for flat/, the
// old local hierarchy's submaster for shards/). Only the stop differs, and is not compared: this master
// stops a worker once the loop is done, not as soon as nothing is left
// to grant; and the events are compared shard by shard (byShard). The distributed and learning cases of that recording are
// gone: this master's gather releases its workers by decreasing ACP
// (TestGatherReleasesByDecreasingACP), not in arrival order.
func TestChannelMasterMatchesReplacedMasters(t *testing.T) {
	want, err := os.ReadFile("testdata/channel_master.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantCases := strings.SplitAfter(string(want), "\n== ")
	flat3, p3 := [][]int{{0, 1, 2}}, []float64{1, 2, 4}
	two, p4 := [][]int{{0, 2}, {1, 3}}, []float64{1, 1, 2, 4}
	for i, c := range []masterCase{
		{"flat/TSS", "TSS", 200, flat3, p3},
		{"flat/WF", "WF", 200, flat3, p3},
		{"shards/TSS", "TSS", 400, two, p4},
		{"shards/FSS", "FSS", 400, two, p4},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := byShard(playMasters(t, c))
			exp := strings.TrimSuffix(wantCases[i], "== ")
			if i > 0 {
				exp = "== " + exp
			}
			if exp = byShard(exp); got != exp {
				t.Errorf("transcript differs from the replaced master's\n--- got\n%s--- want\n%s", got, exp)
			}
		})
	}
}
