package hier

import (
	"context"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"loopsched/internal/dispense"
	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// masterCase is one scripted run of the shared channel master: the
// slaves are played by the test itself, one request per live worker
// per round in a fixed order, so grant order, stage events and stop
// counts are deterministic.
type masterCase struct {
	name   string
	scheme string
	n      int
	shards [][]int   // member run-global ids per shard; one shard = flat
	powers []float64 // virtual power per run-global worker
	acp    func(round, id int) int
}

func steadyACP(powers []float64) func(int, int) int {
	return func(_, id int) int { return int(10 * powers[id]) }
}

// stageEvents collects the two event kinds the channel master owns.
type stageEvents struct {
	mu  sync.Mutex
	log []string
}

func (s *stageEvents) BeginRun(telemetry.RunMeta) {}
func (s *stageEvents) Close() error               { return nil }
func (s *stageEvents) OnEvent(e telemetry.Event) {
	if e.Kind != telemetry.StageAdvanced && e.Kind != telemetry.ChunkGranted {
		return
	}
	s.mu.Lock()
	s.log = append(s.log, fmt.Sprintf("event %v w=%d shard=%d %d+%d acp=%d span=%#x",
		e.Kind, e.Worker, e.Shard, e.Start, e.Size, e.ACP, e.Span))
	s.mu.Unlock()
}

// playMasters drives c's masters (started by serve, one per shard) to
// completion and returns the transcript: every reply in order, every
// stage/grant event in publish order, and each master's summary.
func playMasters(t *testing.T, c masterCase, serve func(ctx context.Context, c masterCase, bus *telemetry.Bus, reqs []chan exec.ChannelRequest) (join func() []string)) string {
	t.Helper()
	bus := telemetry.NewBus(0)
	ev := &stageEvents{}
	bus.Subscribe(ev)
	reqs := make([]chan exec.ChannelRequest, len(c.shards))
	for si := range reqs {
		reqs[si] = make(chan exec.ChannelRequest)
	}
	join := serve(context.Background(), c, bus, reqs)

	var out []string
	p := len(c.powers)
	reply := make([]chan exec.ChannelReply, p)
	stopped := make([]bool, p)
	fbWork, fbElapsed := make([]float64, p), make([]float64, p)
	for id := range reply {
		reply[id] = make(chan exec.ChannelReply, 1)
	}
	for round, live := 0, p; live > 0; round++ {
		for si, members := range c.shards {
			for slot, id := range members {
				if !stopped[id] {
					reqs[si] <- exec.ChannelRequest{Worker: slot, ACP: c.acp(round, id),
						FbWork: fbWork[id], FbElapsed: fbElapsed[id], Reply: reply[id]}
				}
			}
			for _, id := range members {
				if stopped[id] {
					continue
				}
				rep := <-reply[id]
				if !rep.OK {
					stopped[id] = true
					live--
					out = append(out, fmt.Sprintf("reply r%d s%d w%d stop", round, si, id))
					continue
				}
				fbWork[id] = float64(rep.Assign.Size)
				fbElapsed[id] = float64(rep.Assign.Size) / c.powers[id]
				out = append(out, fmt.Sprintf("reply r%d s%d w%d %d+%d", round, si, id, rep.Assign.Start, rep.Assign.Size))
			}
		}
	}
	summaries := join()
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	out = append(out, ev.log...)
	out = append(out, summaries...)
	return "== " + c.name + "\n" + strings.Join(out, "\n") + "\n"
}

func masterCases() []masterCase {
	flat3 := [][]int{{0, 1, 2}}
	p3 := []float64{1, 2, 4}
	two := [][]int{{0, 2}, {1, 3}}
	p4 := []float64{1, 1, 2, 4}
	shift := func(powers []float64) func(int, int) int {
		return func(round, id int) int {
			if round >= 2 && id > 0 {
				return int(10*powers[id]) / 3 // most workers slow down: a majority change
			}
			return int(10 * powers[id])
		}
	}
	return []masterCase{
		{"flat/TSS", "TSS", 200, flat3, p3, steadyACP(p3)},
		{"flat/WF", "WF", 200, flat3, p3, steadyACP(p3)},
		{"flat/AWF", "AWF", 200, flat3, p3, steadyACP(p3)},
		{"flat/DTSS", "DTSS", 300, flat3, p3, steadyACP(p3)},
		{"flat/DTSS-replan", "DTSS", 300, flat3, p3, shift(p3)},
		{"shards/TSS", "TSS", 400, two, p4, steadyACP(p4)},
		{"shards/FSS", "FSS", 400, two, p4, steadyACP(p4)},
		{"shards/DTSS", "DTSS", 400, two, p4, shift(p4)},
	}
}

// serveMasters starts one exec.ChannelMaster per shard of c — flat:
// the whole loop staged once; sharded: super-chunks from a Root — and
// returns a join that waits for them and reports each one's tally.
func serveMasters(ctx context.Context, c masterCase, bus *telemetry.Bus, reqs []chan exec.ChannelRequest) func() []string {
	scheme, err := sched.Lookup(c.scheme)
	if err != nil {
		panic(err)
	}
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
			panic(err)
		}
		root.SetTelemetry(bus)
	}
	out := make([]string, len(c.shards))
	var wg sync.WaitGroup
	for si, members := range c.shards {
		powers := make([]float64, len(members))
		for slot, id := range members {
			powers[slot] = c.powers[id]
		}
		m := exec.ChannelMaster{
			Config:    dispense.Config{Scheme: scheme, Workers: len(members), Powers: powers, NoReplan: !flat},
			Requests:  reqs[si],
			Telemetry: bus,
			Shard:     si,
			Members:   members,
		}
		if flat {
			staged := false
			m.More = func() (int, int, bool) {
				first := !staged
				staged = true
				return 0, c.n, first
			}
		} else {
			m.More = func() (int, int, bool) {
				g, ok := root.Next(si)
				if ok {
					bus.Publish(telemetry.Event{Kind: telemetry.StageAdvanced, Shard: si, Start: g.Start, Size: g.Size(), At: bus.Now()})
				}
				return g.Start, g.Size(), ok
			}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			tally, err := m.Serve(ctx)
			if flat {
				out[si] = fmt.Sprintf("master s%d chunks=%d replans=%d err=%v", si, tally.Chunks, tally.Replans, err)
			} else {
				out[si] = fmt.Sprintf("master s%d chunks=%d iters=%d err=%v", si, tally.Chunks, tally.Iterations, err)
			}
		}()
	}
	return func() []string { wg.Wait(); return out }
}

// TestChannelMasterMatchesReplacedMasters replays the scripted runs
// through the one channel master and requires the transcript — every
// reply, every StageAdvanced / ChunkGranted event, every tally and the
// stop per slave — recorded at commit 42d7c97 from the two functions it
// replaced (exec.Local.master for flat/, LocalRun.submaster for
// shards/).
func TestChannelMasterMatchesReplacedMasters(t *testing.T) {
	want, err := os.ReadFile("testdata/channel_master.golden")
	if err != nil {
		t.Fatal(err)
	}
	wantCases := strings.SplitAfter(string(want), "\n== ")
	for i, c := range masterCases() {
		t.Run(c.name, func(t *testing.T) {
			got := playMasters(t, c, serveMasters)
			if stops := strings.Count(got, " stop\n"); stops != len(c.powers) {
				t.Errorf("%d stop replies for %d slaves", stops, len(c.powers))
			}
			exp := strings.TrimSuffix(wantCases[i], "== ")
			if i > 0 {
				exp = "== " + exp
			}
			if got != exp {
				t.Errorf("transcript differs from the replaced master's\n--- got\n%s--- want\n%s", got, exp)
			}
		})
	}
}
