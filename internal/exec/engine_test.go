package exec

import (
	"context"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/loadgen"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// TestStealExactlyOnce: the work-stealing engine runs every iteration
// exactly once per WorkScale repetition, for every registered scheme.
func TestStealExactlyOnce(t *testing.T) {
	const n = 2000
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int32, n)
		l := &Local{Scheme: s, Workers: specs(1, 1, 1, 1), Engine: EngineSteal}
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

// TestStealExactlyOnceNarrowWindow: window 1 degenerates to one chunk
// per policy trip (no parked work to steal) and must still cover the
// loop; an oversized window exercises the deque wrap-around.
func TestStealExactlyOnceWindows(t *testing.T) {
	const n = 3000
	for _, window := range []int{1, 2, 64} {
		counts := make([]int32, n)
		l := &Local{
			Scheme: sched.GSSScheme{}, Workers: specs(1, 1, 1),
			Engine: EngineSteal, Window: window,
		}
		rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if rep.Iterations != n {
			t.Errorf("window %d: %d iterations", window, rep.Iterations)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("window %d: iteration %d ran %d times", window, i, c)
			}
		}
	}
}

// TestEngineGrantEquivalence: for non-feedback schemes on homogeneous
// workers, every policy's chunk sequence is a function of the call
// index alone, so the channel master and the steal engine must grant
// the same multiset of chunks even though request interleaving and
// batching differ.
func TestEngineGrantEquivalence(t *testing.T) {
	const n, p = 5000, 4
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if pol, err := s.NewPolicy(sched.Config{Iterations: n, Workers: p}); err != nil {
			t.Fatal(err)
		} else if _, fb := pol.(sched.FeedbackPolicy); fb {
			continue // learning policies depend on measured timings
		}
		grants := func(engine string) []sched.Assignment {
			// Room for every event of an SS run (a few per chunk), so the
			// ring never drops a grant the comparison needs.
			bus := telemetry.NewBus(1 << 15)
			col := &grantCollector{}
			bus.Subscribe(col)
			scales := make([]int, p)
			for i := range scales {
				scales[i] = 1
			}
			l := &Local{Scheme: s, Workers: specs(scales...), Engine: engine, Telemetry: bus}
			rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(int) {})
			if err != nil {
				t.Fatalf("%s/%s: %v", name, engine, err)
			}
			if rep.Iterations != n {
				t.Fatalf("%s/%s: %d iterations", name, engine, rep.Iterations)
			}
			if err := bus.Close(); err != nil {
				t.Fatalf("%s/%s: bus close: %v", name, engine, err)
			}
			sort.Slice(col.grants, func(i, j int) bool {
				return col.grants[i].Start < col.grants[j].Start
			})
			return col.grants
		}
		channel := grants(EngineChannel)
		stealG := grants(EngineSteal)
		if len(channel) != len(stealG) {
			t.Errorf("%s: channel granted %d chunks, steal %d", name, len(channel), len(stealG))
			continue
		}
		for i := range channel {
			if channel[i] != stealG[i] {
				t.Errorf("%s: grant %d differs: channel %+v, steal %+v", name, i, channel[i], stealG[i])
				break
			}
		}
	}
}

// TestStealHeterogeneous mirrors TestLocalHeterogeneous on the steal
// engine: WorkScale-3 workers repeat the body three times.
func TestStealHeterogeneous(t *testing.T) {
	const n = 500
	perIter := make([]int32, n)
	l := &Local{Scheme: sched.DTSSScheme{}, Workers: specs(1, 3), Engine: EngineSteal}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
		atomic.AddInt32(&perIter[i], 1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, c := range perIter {
		if c != 1 && c != 3 {
			t.Fatalf("iteration %d ran %d times", i, c)
		}
	}
}

// TestStealCancellation: cancelling mid-run returns ctx's error and
// leaves the executor reusable.
func TestStealCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &Local{Scheme: sched.SelfScheduling, Workers: specs(1, 1), Engine: EngineSteal}
	var n atomic.Int64
	_, err := l.RunContext(ctx, workload.Uniform{N: 1 << 30}, func(i int) {
		if n.Add(1) == 100 {
			cancel()
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: 100}, func(int) {})
	if err != nil || rep.Iterations != 100 {
		t.Fatalf("rerun: %v, %d iterations", err, rep.Iterations)
	}
}

func TestUnknownEngine(t *testing.T) {
	l := &Local{Scheme: sched.GSSScheme{}, Workers: specs(1), Engine: "fibers"}
	if _, err := l.RunContext(context.Background(), workload.Uniform{N: 10}, func(int) {}); err == nil {
		t.Error("unknown engine accepted")
	}
}

func TestStealEmptyLoop(t *testing.T) {
	l := &Local{Scheme: sched.TSSScheme{}, Workers: specs(1, 1), Engine: EngineSteal}
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

// TestStealTelemetry: the steal engine's refill/steal events reconcile
// with the aggregator and the report.
func TestStealTelemetry(t *testing.T) {
	const n = 20000
	bus := telemetry.NewBus(0)
	agg := telemetry.NewAggregator(bus.Dropped)
	bus.Subscribe(agg)
	l := &Local{
		Scheme: sched.CSSScheme{K: 8}, Workers: specs(1, 1, 1, 1),
		Engine: EngineSteal, Telemetry: bus,
	}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(int) {})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	snap := agg.Snapshot()
	if snap.LocalRefills == 0 {
		t.Error("no deque refills recorded")
	}
	if got := int(snap.Iterations); got != n {
		t.Errorf("aggregator saw %d granted iterations, want %d", got, n)
	}
	if int(snap.ChunksGranted) != rep.Chunks {
		t.Errorf("aggregator saw %d grants, report %d chunks", snap.ChunksGranted, rep.Chunks)
	}
	if int(snap.LocalSteals) != rep.Steals {
		t.Errorf("aggregator saw %d steals, report %d", snap.LocalSteals, rep.Steals)
	}
}

// recordingScheme wraps CSS so its policy records what Feedback is
// told, for the timing-drift regression below.
type recordingScheme struct {
	fed *[]float64
}

func (recordingScheme) Name() string { return "REC" }

func (r recordingScheme) NewPolicy(cfg sched.Config) (sched.Policy, error) {
	pol, err := sched.CSSScheme{K: cfg.Iterations}.NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	return &recordingPolicy{Policy: pol, fed: r.fed}, nil
}

type recordingPolicy struct {
	sched.Policy
	fed *[]float64
}

func (p *recordingPolicy) Feedback(worker int, work, elapsed float64) {
	*p.fed = append(*p.fed, elapsed)
}

// TestFeedbackElapsedMatchesComp is the regression for the
// double-time.Since drift: with a single worker computing a single
// chunk, the elapsed time delivered to Feedback, the ChunkCompleted
// event, the Comp metric and the trace span must all be the one
// reading.
func TestFeedbackElapsedMatchesComp(t *testing.T) {
	for _, engine := range []string{EngineChannel, EngineSteal} {
		var fed []float64
		tr := &trace.Trace{}
		sink := 0.0
		l := &Local{
			Scheme: recordingScheme{fed: &fed}, Workers: specs(1),
			Engine: engine, Trace: tr,
		}
		rep, err := l.RunContext(context.Background(), workload.Uniform{N: 5000}, func(i int) {
			sink += math.Sqrt(float64(i))
		})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		_ = sink
		if len(fed) != 1 {
			t.Fatalf("%s: Feedback called %d times, want 1", engine, len(fed))
		}
		if comp := rep.PerWorker[0].Comp; fed[0] != comp {
			t.Errorf("%s: Feedback elapsed %.12g != Comp %.12g (readings drifted)", engine, fed[0], comp)
		}
		evs := tr.Events()
		if len(evs) != 1 {
			t.Fatalf("%s: %d trace events, want 1", engine, len(evs))
		}
		if span := evs[0].End - evs[0].Begin; math.Abs(span-fed[0]) > 1e-9 {
			t.Errorf("%s: trace span %.12g != fed elapsed %.12g", engine, span, fed[0])
		}
	}
}

// TestAddLoadConcurrentClamp is the regression for the check-then-act
// clamp: one goroutine drives the floor with -1s while another adds
// +2s. Under any linearisation of clamped operations the final load is
// at least the +2 surplus; the old Add+Store(0) could wipe concurrent
// additions wholesale.
func TestAddLoadConcurrentClamp(t *testing.T) {
	const iters = 100000
	w := &WorkerSpec{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			w.AddLoad(-1)
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			w.AddLoad(2)
			if w.Load() < 0 {
				t.Error("negative load observed")
				return
			}
		}
	}()
	wg.Wait()
	// Sum of deltas is +iters; clamping only ever raises the result.
	if got := w.Load(); got < iters {
		t.Errorf("final load %d < %d: concurrent additions were lost", got, iters)
	}
}

// TestAddLoadScriptStress drives AddLoad the way a load timeline does:
// each phase of a generated script contributes a job arrival (+Extra)
// and a departure (-Extra), replayed concurrently per worker slice.
// Departures follow their arrivals, so the true load never goes
// negative and the final value must be exactly zero.
func TestAddLoadScriptStress(t *testing.T) {
	script := loadgen.Poisson(50, 0.5, 20, 42)
	if len(script) == 0 {
		t.Fatal("empty load script")
	}
	w := &WorkerSpec{}
	var wg sync.WaitGroup
	const replayers = 4
	for r := 0; r < replayers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; i < len(script); i += replayers {
				ph := script[i]
				w.AddLoad(ph.Extra)
				if w.Load() < ph.Extra {
					t.Errorf("load %d below this phase's own contribution", w.Load())
					return
				}
				w.AddLoad(-ph.Extra)
			}
		}(r)
	}
	wg.Wait()
	if got := w.Load(); got != 0 {
		t.Errorf("final load %d after balanced script, want 0", got)
	}
}
