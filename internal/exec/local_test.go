package exec

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/acp"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

func specs(scales ...int) []*WorkerSpec {
	out := make([]*WorkerSpec, len(scales))
	for i, s := range scales {
		out[i] = &WorkerSpec{WorkScale: s}
	}
	return out
}

// localRun is the local backend inside this package: one Master, and a
// Worker per spec reaching it over a memory link (Master.Link), as the
// root package's runFlat builds it.
type localRun struct {
	Scheme    sched.Scheme
	Workers   []*WorkerSpec
	ACP       acp.Model
	Pipeline  bool
	Telemetry *telemetry.Bus
	// Trace records every completed chunk, from Telemetry or a private
	// bus.
	Trace *trace.Trace
}

// RunContext runs body once per iteration of w and returns the master's
// report, or ctx's error once ctx ends.
func (l *localRun) RunContext(ctx context.Context, w workload.Workload, body func(int)) (metrics.Report, error) {
	bus := l.Telemetry
	if l.Trace != nil {
		if bus == nil {
			bus = telemetry.NewBus(0)
			defer bus.Close()
		}
		sub := telemetry.TraceSubscriber(l.Trace)
		bus.Subscribe(sub)
		defer func() { bus.Flush(); bus.Unsubscribe(sub) }()
	}
	powers := VirtualPowers(l.Workers)
	m, err := New(Config{
		Scheme: l.Scheme, Iterations: w.Len(), Workers: len(l.Workers), Powers: powers,
		Telemetry: bus,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	var wg sync.WaitGroup
	for i, ws := range l.Workers {
		w := Worker{
			ID: i, Kernel: func(i int) []byte { body(i); return nil },
			VirtualPower: powers[i], LoadProbe: ws.Load, ACPModel: l.ACP, WorkScale: ws.WorkScale,
			Pipeline: l.Pipeline, Telemetry: bus, TelemetryID: i,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.RunLink(ctx, m.Link()); err != nil && ctx.Err() == nil {
				m.Cancel(err)
			}
		}()
	}
	rep, err := m.WaitReport(ctx)
	wg.Wait()
	rep.Workload = w.Name()
	return rep, err
}

// TestLocalExactlyOnce: every iteration runs exactly once per
// WorkScale repetition, for every scheme, under real concurrency.
func TestLocalExactlyOnce(t *testing.T) {
	const n = 2000
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int32, n)
		l := &localRun{Scheme: s, Workers: specs(1, 1, 1, 1)}
		rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if rep.Iterations != n {
			t.Errorf("%s: %d iterations", name, rep.Iterations)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("%s: iteration %d ran %d times", name, i, c)
			}
		}
	}
}

// TestLocalHeterogeneous: WorkScale-3 workers repeat the body three
// times per iteration, so the total body count is predictable even
// though the split is scheme-dependent.
func TestLocalHeterogeneous(t *testing.T) {
	const n = 500
	var total atomic.Int64
	perIter := make([]int32, n)
	l := &localRun{Scheme: sched.DTSSScheme{}, Workers: specs(1, 3)}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
		total.Add(1)
		atomic.AddInt32(&perIter[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	// Each iteration ran either 1× (fast worker) or 3× (slow worker).
	for i, c := range perIter {
		if c != 1 && c != 3 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
	if got := total.Load(); got < int64(n) || got > int64(3*n) {
		t.Errorf("total body invocations %d out of range", got)
	}
}

// TestLocalDistributedFavoursFast: with scale-1 and scale-4 workers a
// distributed scheme must answer every request in proportion to the
// requester's ACP share — the fast worker reports 4× the slow one's
// ACP, so a request of its gets 4× the iterations a slow request would
// at the same stage. The assertion is on the plan: the trace, read in
// grant order, must be exactly what a DFSS policy planned with the two
// reported ACPs answers to the same requests (C_j = SC_k·A_j/A). Who
// wins how many requests is goroutine timing on a near-empty body —
// inferring ownership from it failed about one suite run in six.
func TestLocalDistributedFavoursFast(t *testing.T) {
	const n = 4000
	tr := &trace.Trace{}
	l := &localRun{Scheme: sched.NewDFSS(), Workers: specs(1, 4), Trace: tr}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	fast, slow := l.ACP.ACP(4, 1), l.ACP.ACP(1, 1)
	if fast != 4*slow {
		t.Fatalf("ACP model gives fast %d, slow %d, want 4:1", fast, slow)
	}
	plan := func() sched.Policy {
		pol, err := l.Scheme.NewPolicy(sched.Config{
			Iterations: n, Workers: 2, Powers: []float64{float64(fast), float64(slow)},
		})
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	// The plan favours the fast worker 4:1 at equal stage...
	cf, _ := plan().Next(sched.Request{Worker: 0, ACP: float64(fast)})
	cs, _ := plan().Next(sched.Request{Worker: 1, ACP: float64(slow)})
	if cf.Size != 4*cs.Size {
		t.Errorf("first grant: fast gets %d, slow %d, want 4:1", cf.Size, cs.Size)
	}
	// ...and the run granted exactly that plan.
	pol := plan()
	events := tr.Events()
	sort.Slice(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	for _, e := range events {
		if want := [2]int{fast, slow}[e.Worker]; e.ACP != want {
			t.Fatalf("worker %d reported ACP %d, want %d", e.Worker, e.ACP, want)
		}
		a, ok := pol.Next(sched.Request{Worker: e.Worker, ACP: float64(e.ACP)})
		if !ok || a.Start != e.Start || a.Size != e.Size {
			t.Fatalf("worker %d (ACP %d) ran [%d,+%d), the DFSS plan answers [%d,+%d) (ok=%v)",
				e.Worker, e.ACP, e.Start, e.Size, a.Start, a.Size, ok)
		}
	}
	if _, ok := pol.Next(sched.Request{}); ok {
		t.Error("the plan has chunks the run never granted")
	}
	if rep.Chunks != len(events) || rep.Iterations != n {
		t.Errorf("report has %d chunks, %d iterations; trace has %d events over %d", rep.Chunks, rep.Iterations, len(events), n)
	}
}

// TestLocalLoadAdjustment: AddLoad changes the reported ACP and can
// trigger a re-plan mid-run.
func TestLocalLoadAdjustment(t *testing.T) {
	const n = 50000
	ws := specs(1, 1, 1, 1)
	l := &localRun{Scheme: sched.DTSSScheme{}, Workers: ws}
	var fired atomic.Bool
	_, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
		if i > n/10 && !fired.Load() {
			fired.Store(true)
			ws[0].AddLoad(3)
			ws[1].AddLoad(3)
			ws[2].AddLoad(3)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replans are timing-dependent under real concurrency, so only
	// sanity-check the load plumbing itself.
	if ws[0].Load() != 3 {
		t.Errorf("Load = %d, want 3", ws[0].Load())
	}
	ws[0].AddLoad(-5)
	if ws[0].Load() != 0 {
		t.Errorf("Load floor broken: %d", ws[0].Load())
	}
}

// TestLocalCancellation: cancelling the context stops the run early
// with ctx's error — every worker's memory link fails its next call —
// and no goroutines are left behind (checked indirectly: a second run on
// the same executor works).
func TestLocalCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &localRun{Scheme: sched.SelfScheduling, Workers: specs(1, 1)}
	var n atomic.Int64
	_, err := l.RunContext(ctx, workload.Uniform{N: 1 << 30}, func(i int) {
		if n.Add(1) == 100 {
			cancel()
		}
	})
	if err == nil {
		t.Fatal("cancelled run returned nil error")
	}
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// The executor is reusable after cancellation.
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: 100}, func(int) {})
	if err != nil || rep.Iterations != 100 {
		t.Fatalf("rerun: %v, %d iterations", err, rep.Iterations)
	}
}

// TestLocalCancelBeforeGather: cancelling during the distributed
// master's initial gather also unblocks cleanly: a request parked there
// is released by the master's Cancel.
func TestLocalCancelBeforeGather(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts
	l := &localRun{Scheme: sched.DTSSScheme{}, Workers: specs(1, 1)}
	_, err := l.RunContext(ctx, workload.Uniform{N: 1000}, func(int) {})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestLocalNoWorkers(t *testing.T) {
	l := &localRun{Scheme: sched.GSSScheme{}}
	if _, err := l.RunContext(context.Background(), workload.Uniform{N: 10}, func(int) {}); err == nil {
		t.Error("no-worker run accepted")
	}
}

func TestLocalEmptyLoop(t *testing.T) {
	l := &localRun{Scheme: sched.TSSScheme{}, Workers: specs(1, 1)}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: 0}, func(int) {
		t.Error("body ran on empty loop")
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 0 {
		t.Errorf("iterations = %d", rep.Iterations)
	}
}
