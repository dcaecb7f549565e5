package exec

import (
	"context"
	"io"
	"math"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// TestGatherReleasesByDecreasingACP pins the master's step 1(a): the
// first requests of a distributed scheme park until every worker has
// reported, and are then granted in decreasing order of reported ACP,
// ties by worker id — whatever order they arrived in. A prefetch that
// arrives mid-gather counts as that worker's report and is answered
// empty, not parked.
func TestGatherReleasesByDecreasingACP(t *testing.T) {
	for _, tc := range []struct {
		acps  []int
		order []int // workers, first grant first
	}{
		{[]int{10, 30, 20}, []int{1, 2, 0}},
		{[]int{20, 20, 30}, []int{2, 0, 1}},
		{[]int{7, 7, 7}, []int{0, 1, 2}},
	} {
		m, err := NewMaster(sched.DTSSScheme{}, 1000, 3)
		if err != nil {
			t.Fatal(err)
		}
		var early wire.Reply
		last := tc.order[2]
		if err := m.nextBatch(ChunkArgs{Worker: last, ACP: tc.acps[last], Prefetch: true}, 1, &early); err != nil {
			t.Fatal(err)
		}
		if len(early.Grants) != 0 || early.Stop {
			t.Fatalf("acps %v: a prefetch mid-gather was answered %+v, want an empty reply", tc.acps, early)
		}
		replies := make([]wire.Reply, 3)
		var wg sync.WaitGroup
		ask := func(w int) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := m.nextBatch(ChunkArgs{Worker: w, ACP: tc.acps[w]}, 1, &replies[w]); err != nil {
					t.Errorf("worker %d: %v", w, err)
				}
			}()
		}
		// Arrival order is the reverse of the release order, and the
		// request that completes the gather is the one due first.
		for i := 2; i > 0; i-- {
			ask(tc.order[i])
			waitParked(t, m, 3-i)
		}
		ask(tc.order[0])
		wg.Wait()
		next := 0
		for _, w := range tc.order {
			if g := replies[w].Grants; len(g) != 1 || g[0].Start != next {
				t.Fatalf("acps %v: worker %d was granted %v, want the chunk at %d", tc.acps, w, g, next)
			}
			next = replies[w].Grants[0].End()
		}
		m.Cancel(nil)
	}
}

// keepOpen is one rank's stream on an endpoint that serves others too.
type keepOpen struct{ io.ReadWriter }

func (keepOpen) Close() error { return nil }

// TestAWFLearnsFromReportedTimings closes the hole in which AWF ran as
// WF on the master path: the compute seconds a request reports for the
// chunks it retires must reach the policy, so on workers 3:1 apart its
// stages split 3:1 — over a socket and over a message-passing world
// alike. Time is scripted (a millisecond per kernel call on each
// worker's own clock, and a microsecond per round trip, so that each
// measured ask is one chunk) and the assertion is on granted sizes, so no
// wall clock is involved; a gate holds whoever starts the second stage first
// until the other has too, so both have been measured from the third
// stage on.
func TestAWFLearnsFromReportedTimings(t *testing.T) {
	const n = 40000
	for _, reach := range []string{"tcp", "mp"} {
		t.Run(reach, func(t *testing.T) {
			bus := telemetry.NewBus(1 << 12)
			defer bus.Close()
			log := &eventLog{}
			bus.Subscribe(log)
			m, err := New(Config{Scheme: sched.AWFScheme{}, Iterations: n, Workers: 2, Telemetry: bus})
			if err != nil {
				t.Fatal(err)
			}

			var run func(w Worker) error
			if reach == "tcp" {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer m.Shutdown(ln)
				if err := m.Serve(ln); err != nil {
					t.Fatal(err)
				}
				run = func(w Worker) error { return w.Run(ln.Addr().String()) }
			} else {
				world, err := mp.NewWorld(3)
				if err != nil {
					t.Fatal(err)
				}
				var serving sync.WaitGroup
				defer serving.Wait()
				for r := 1; r <= 2; r++ {
					serving.Add(1)
					go func() {
						defer serving.Done()
						m.ServeConn(keepOpen{mp.Stream(world[0], r)})
					}()
				}
				run = func(w Worker) error {
					link, err := wire.NewClient(mp.Stream(world[w.ID+1], 0))
					if err != nil {
						return err
					}
					return w.RunLink(context.Background(), link)
				}
			}

			reached := [2]chan struct{}{make(chan struct{}), make(chan struct{})}
			var workers sync.WaitGroup
			for id, scale := range []int{1, 3} {
				var (
					ticks time.Duration
					reads int
					once  sync.Once
				)
				w := Worker{
					ID: id, WorkScale: scale,
					Kernel: func(i int) []byte {
						if i >= n/2 { // past the first stage
							once.Do(func() { close(reached[id]) })
							<-reached[1-id]
						}
						ticks += time.Millisecond
						return nil
					},
					// A synchronous request reads the clock as it leaves and
					// as its reply lands: the round trip is the second read's.
					clock: func() time.Time {
						if reads++; reads%2 == 0 {
							ticks += time.Microsecond
						}
						return time.Unix(0, 0).Add(ticks)
					},
				}
				workers.Add(1)
				go func() {
					defer workers.Done()
					if err := run(w); err != nil {
						t.Errorf("worker %d: %v", id, err)
					}
				}()
			}
			if _, _, err := m.Wait(); err != nil {
				t.Fatal(err)
			}
			workers.Wait()
			bus.Flush()

			var grants []telemetry.Event
			for _, e := range log.drain() {
				if e.Kind == telemetry.ChunkGranted {
					grants = append(grants, e)
				}
			}
			slices.SortFunc(grants, func(a, b telemetry.Event) int { return a.Start - b.Start })
			checked := 0
			for s := 2; 2*s+1 < len(grants); s++ { // a stage is two draws
				stage := float64(n-grants[2*s].Start) / 2
				if stage < 16 {
					break
				}
				for _, g := range grants[2*s : 2*s+2] {
					want := stage * []float64{0.75, 0.25}[g.Worker]
					if math.Abs(float64(g.Size)-want) > 1 {
						t.Errorf("stage %d of %.0f iterations: worker %d was granted %d, want %.1f", s, stage, g.Worker, g.Size, want)
					}
					checked++
				}
			}
			if checked < 8 { // the fast worker alone quarters what is left per stage
				t.Fatalf("only %d grants checked of %d", checked, len(grants))
			}
		})
	}
}
