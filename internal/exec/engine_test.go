package exec

import (
	"context"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"loopsched/internal/acp"
	"loopsched/internal/loadgen"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/workload"
)

// stealRun drives one JobState — the deque core the scheduler service
// runs its jobs on — the way a fleet worker does, a goroutine per
// worker: pop its own deque, else steal, else refill from the
// dispenser, and with nothing anywhere yield until the job is finished.
// Cancelling ctx aborts the job; body runs WorkScale times per
// iteration.
type stealRun struct {
	Scheme    sched.Scheme
	Workers   []*WorkerSpec
	Window    int
	Ledger    LedgerMode
	Telemetry *telemetry.Bus
}

func (r *stealRun) RunContext(ctx context.Context, w workload.Workload, body func(int)) (metrics.Report, error) {
	p := len(r.Workers)
	powers := VirtualPowers(r.Workers)
	acpNow := func(id int) int { return acp.Model{}.ACP(powers[id], 1+r.Workers[id].Load()) }
	var initACP []int
	if sched.Distributed(r.Scheme) {
		initACP = make([]int, p)
		for id := range initACP {
			initACP[id] = acpNow(id)
		}
	}
	js, err := NewJobState(JobConfig{
		Scheme: r.Scheme, Workload: w, Workers: p, Window: r.Window, InitACP: initACP,
		Powers: powers, Telemetry: r.Telemetry, Ledger: r.Ledger,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	stop := context.AfterFunc(ctx, js.Abort)
	defer stop()
	iters := make([]int, p)
	var wg sync.WaitGroup
	for id, ws := range r.Workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				a, ok := js.Pop(id)
				if !ok {
					a, ok = js.Steal(id)
				}
				if !ok {
					a, _, ok = js.Refill(id, acpNow(id), 0, 0)
				}
				if !ok {
					if js.Finished() {
						return
					}
					runtime.Gosched() // granted work is still in other deques
					continue
				}
				for i := a.Start; i < a.End(); i++ {
					for range ws.scale() {
						body(i)
					}
				}
				iters[id] += a.Size
				js.Complete(id, a, acpNow(id), 0)
			}
		}()
	}
	wg.Wait()
	c := js.Counts()
	rep := metrics.Report{Workers: p, Chunks: c.Chunks, Replans: c.Replans, Steals: int(c.Steals)}
	for _, n := range iters {
		rep.Iterations += n
	}
	return rep, ctx.Err()
}

// TestStealExactlyOnce: the deque core runs every iteration exactly once
// per WorkScale repetition, for every registered scheme.
func TestStealExactlyOnce(t *testing.T) {
	const n = 2000
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int32, n)
		l := &stealRun{Scheme: s, Workers: specs(1, 1, 1, 1)}
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

// TestStealExactlyOnceWindows: window 1 degenerates to one chunk per
// policy trip (no parked work to steal) and must still cover the loop;
// an oversized window exercises the deque wrap-around.
func TestStealExactlyOnceWindows(t *testing.T) {
	const n = 3000
	for _, window := range []int{1, 2, 64} {
		counts := make([]int32, n)
		l := &stealRun{Scheme: sched.GSSScheme{}, Workers: specs(1, 1, 1), Window: window}
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
// index alone, so the two grant books left — the master the local
// backend's workers reach over memory links, and the service's deque
// core — must grant the same multiset of chunks even though request
// interleaving and batching differ.
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
		// Room for every event of an SS run (a few per chunk), so the ring
		// never drops a grant the comparison needs.
		grants := func(engine string, bus *telemetry.Bus, run func() (metrics.Report, error)) []sched.Assignment {
			col := &grantCollector{}
			bus.Subscribe(col)
			rep, err := run()
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
		w, body := workload.Uniform{N: n}, func(int) {}
		mbus, dbus := telemetry.NewBus(1<<15), telemetry.NewBus(1<<15)
		master := grants("master", mbus, func() (metrics.Report, error) {
			return (&localRun{Scheme: s, Workers: specs(1, 1, 1, 1), Telemetry: mbus}).RunContext(context.Background(), w, body)
		})
		deques := grants("deques", dbus, func() (metrics.Report, error) {
			return (&stealRun{Scheme: s, Workers: specs(1, 1, 1, 1), Telemetry: dbus}).RunContext(context.Background(), w, body)
		})
		if len(master) != len(deques) {
			t.Errorf("%s: master granted %d chunks, deques %d", name, len(master), len(deques))
			continue
		}
		for i := range master {
			if master[i] != deques[i] {
				t.Errorf("%s: grant %d differs: master %+v, deques %+v", name, i, master[i], deques[i])
				break
			}
		}
	}
}

// TestStealHeterogeneous mirrors TestLocalHeterogeneous on the deque
// core: WorkScale-3 workers repeat the body three times.
func TestStealHeterogeneous(t *testing.T) {
	const n = 500
	perIter := make([]int32, n)
	l := &stealRun{Scheme: sched.DTSSScheme{}, Workers: specs(1, 3)}
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

// TestStealCancellation: aborting a job mid-run stops its refills — the
// workers drain what they hold and return — and a fresh job runs to
// completion after it.
func TestStealCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	l := &stealRun{Scheme: sched.SelfScheduling, Workers: specs(1, 1)}
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

func TestStealEmptyLoop(t *testing.T) {
	l := &stealRun{Scheme: sched.TSSScheme{}, Workers: specs(1, 1)}
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

// TestStealTelemetry: the deque core's refill/steal events reconcile
// with the aggregator and the job's counts.
func TestStealTelemetry(t *testing.T) {
	const n = 20000
	bus := telemetry.NewBus(0)
	agg := telemetry.NewAggregator(bus.Dropped)
	bus.Subscribe(agg)
	l := &stealRun{Scheme: sched.CSSScheme{K: 8}, Workers: specs(1, 1, 1, 1), Telemetry: bus}
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

// recordingScheme wraps CSS — two chunks over the loop — so its policy
// records what Feedback is told, for the timing-drift regression below.
type recordingScheme struct {
	fed *[]float64
}

func (recordingScheme) Name() string { return "REC" }

func (r recordingScheme) NewPolicy(cfg sched.Config) (sched.Policy, error) {
	pol, err := sched.CSSScheme{K: (cfg.Iterations + 1) / 2}.NewPolicy(cfg)
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
// double-time.Since drift: one worker computes two chunks, one per
// request (window 1). The elapsed time the master feeds back for the
// first — on the request that asks for the second — must be the very
// reading its ChunkCompleted event (and so its trace span) carries, and
// the Comp metric the sum of the two chunks' readings.
func TestFeedbackElapsedMatchesComp(t *testing.T) {
	var fed []float64
	bus := telemetry.NewBus(0)
	log := &eventLog{}
	bus.Subscribe(log)
	sink := 0.0
	l := &localRun{Scheme: recordingScheme{fed: &fed}, Workers: specs(1), Window: 1, Telemetry: bus}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: 5000}, func(i int) {
		sink += math.Sqrt(float64(i))
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = sink
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	var secs []float64
	for _, e := range log.drain() {
		if e.Kind == telemetry.ChunkCompleted {
			secs = append(secs, e.Seconds)
		}
	}
	if len(secs) != 2 {
		t.Fatalf("%d chunks completed, want 2", len(secs))
	}
	if len(fed) != 1 {
		t.Fatalf("Feedback called %d times, want 1 (for the first chunk)", len(fed))
	}
	if fed[0] != secs[0] {
		t.Errorf("Feedback elapsed %.12g != the first chunk's reading %.12g (readings drifted)", fed[0], secs[0])
	}
	if comp := rep.PerWorker[0].Comp; comp != secs[0]+secs[1] {
		t.Errorf("Comp %.12g != the two chunks' readings %.12g + %.12g", comp, secs[0], secs[1])
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
