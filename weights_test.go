package loopsched_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched"
	"loopsched/internal/telemetry"
)

// firstGrants records the first chunk each worker is granted.
type firstGrants struct {
	mu    sync.Mutex
	sizes map[int]int
}

func (f *firstGrants) BeginRun(telemetry.RunMeta) {}
func (f *firstGrants) Close() error               { return nil }
func (f *firstGrants) OnEvent(e telemetry.Event) {
	if e.Kind != telemetry.ChunkGranted && e.Kind != telemetry.ChunkPrefetched {
		return
	}
	f.mu.Lock()
	if _, seen := f.sizes[e.Worker]; !seen {
		f.sizes[e.Worker] = e.Size
	}
	f.mu.Unlock()
}

// TestStaticWeightsReachEveryFlatRuntime pins the one rule for the
// static-weight schemes (DESIGN.md "The dispenser"): where the caller
// knows the workers' virtual powers — every runtime Run and the
// scheduler service start themselves — WF splits each stage by them.
// On a 2:1 pair the first stage of an 1800-iteration loop is 900
// iterations, 600 for the fast worker and 300 for the slow one,
// whichever asks first. The body holds the first chunk until both
// workers are executing one, and every reply is a single chunk — two of
// either worker's chunks exceed the share (sched.BatchLimit), whoever
// asks first — so both first chunks come from that first stage whatever
// the goroutine schedule. Before the dispenser only the simulators and
// the hierarchy passed the powers on; the flat real runtimes ran WF as
// FSS (450 and 450).
func TestStaticWeightsReachEveryFlatRuntime(t *testing.T) {
	const n = 1800
	workers := func() []*loopsched.WorkerSpec {
		return []*loopsched.WorkerSpec{{WorkScale: 1}, {WorkScale: 2}}
	}
	viaRun := func(spec loopsched.RunSpec) func(*testing.T, *loopsched.Telemetry, func(int)) {
		return func(t *testing.T, tele *loopsched.Telemetry, body func(int)) {
			spec.Scheme, spec.Workload = loopsched.NewWF(), loopsched.Uniform{N: n, C: 1}
			spec.Workers, spec.Body, spec.Telemetry = workers(), body, tele
			if _, err := loopsched.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, tele *loopsched.Telemetry, body func(int))
	}{
		{"local-channel", viaRun(loopsched.RunSpec{Backend: loopsched.BackendLocal})},
		{"local-steal", viaRun(loopsched.RunSpec{Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal})},
		{"rpc-binary", viaRun(loopsched.RunSpec{Backend: loopsched.BackendRPC, Transport: "binary"})},
		{"mp", viaRun(loopsched.RunSpec{Backend: loopsched.BackendMP})},
		{"service", func(t *testing.T, tele *loopsched.Telemetry, body func(int)) {
			s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
				Workers: workers(), Telemetry: tele,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			j, err := s.Submit(context.Background(), loopsched.JobSpec{
				Scheme: loopsched.NewWF(), Workload: loopsched.Uniform{N: n, C: 1}, Body: body,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer tele.Close()
			first := &firstGrants{sizes: map[int]int{}}
			tele.Bus().Subscribe(first)

			// Nobody finishes an iteration until two workers are inside
			// the body at once: each is then in its first chunk.
			var inside atomic.Int32
			both := make(chan struct{})
			tc.run(t, tele, func(int) {
				if inside.Add(1) == 2 {
					close(both)
				}
				<-both
			})
			tele.Flush()

			first.mu.Lock()
			defer first.mu.Unlock()
			if fast, slow := first.sizes[0], first.sizes[1]; fast != 600 || slow != 300 {
				t.Errorf("first chunks: fast worker %d, slow worker %d iterations; want 600 and 300 (2/3 and 1/3 of the 900-iteration first stage)", fast, slow)
			}
		})
	}
}
