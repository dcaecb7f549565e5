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
	"loopsched/internal/wire"
	"loopsched/internal/workload"
)

// stealRun drives one job master (New with InitACP) the way a scheduler
// fleet worker does, a goroutine per worker over its memory link: a
// non-parking prefetch per batch, carrying the results of the last one,
// until a reply says Stop — and when nothing is granted, a yield before
// the next. Cancelling ctx cancels the master; body runs WorkScale times
// per iteration.
type stealRun struct {
	Scheme    sched.Scheme
	Workers   []*WorkerSpec
	Credits   int        // asked per request; 0 asks DefaultStealWindow
	Ledger    LedgerMode // accepted and ignored, as the service does
	Telemetry *telemetry.Bus
}

func (r *stealRun) RunContext(ctx context.Context, w workload.Workload, body func(int)) (metrics.Report, error) {
	p := len(r.Workers)
	powers := VirtualPowers(r.Workers)
	acpNow := func(id int) int { return acp.Model{}.ACP(powers[id], 1+r.Workers[id].Load()) }
	initACP := make([]int, p)
	for id := range initACP {
		initACP[id] = 1
		if sched.Distributed(r.Scheme) {
			initACP[id] = acpNow(id)
		}
	}
	credits := r.Credits
	if credits <= 0 {
		credits = DefaultStealWindow
	}
	m, err := New(Config{
		Scheme: r.Scheme, Iterations: w.Len(), Workers: p, Powers: powers,
		Telemetry: r.Telemetry, InitACP: initACP,
	})
	if err != nil {
		return metrics.Report{}, err
	}
	stop := context.AfterFunc(ctx, func() { m.Cancel(ctx.Err()) })
	defer stop()
	var wg sync.WaitGroup
	for id, ws := range r.Workers {
		l := m.Link()
		wg.Add(1)
		go func() {
			defer wg.Done()
			var (
				req  wire.Request
				rep  wire.Reply
				recs []wire.Record
			)
			for {
				req = wire.Request{Worker: id, ACP: acpNow(id), Prefetch: true, Credits: credits, Results: recs}
				if err := l.Call(&req, &rep); err != nil {
					m.Cancel(err)
					return
				}
				if rep.Stop {
					return
				}
				if len(rep.Grants) == 0 {
					runtime.Gosched() // granted work is still with other workers
				}
				recs = recs[:0]
				for _, a := range rep.Grants {
					for i := a.Start; i < a.End(); i++ {
						for range ws.scale() {
							body(i)
						}
					}
					recs = append(recs, wire.Record{Index: a.Start, Count: a.Size})
				}
			}
		}()
	}
	wg.Wait()
	return m.Report(), ctx.Err()
}

// TestStealExactlyOnce: the fleet dialogue runs every iteration exactly
// once per WorkScale repetition, for every registered scheme.
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

// TestStealExactlyOnceWindows: an ask of one credit — a window of one
// chunk per request — must still cover the loop; an oversized ask makes
// deep replies.
func TestStealExactlyOnceWindows(t *testing.T) {
	const n = 3000
	for _, credits := range []int{1, 2, 64} {
		counts := make([]int32, n)
		l := &stealRun{Scheme: sched.GSSScheme{}, Workers: specs(1, 1, 1), Credits: credits}
		rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		if err != nil {
			t.Fatalf("credits %d: %v", credits, err)
		}
		if rep.Iterations != n {
			t.Errorf("credits %d: %d iterations", credits, rep.Iterations)
		}
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("credits %d: iteration %d ran %d times", credits, i, c)
			}
		}
	}
}

// TestEngineGrantEquivalence: for non-feedback schemes on homogeneous
// workers, every policy's chunk sequence is a function of the call
// index alone, so the master must grant the same multiset of chunks to
// the local backend's workers and to a fleet's prefetch-only dialogue
// even though request interleaving and batching differ.
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
			if d := bus.Dropped(); d > 0 {
				t.Fatalf("%s/%s: the bus dropped %d events; the grants cannot be compared", name, engine, d)
			}
			sort.Slice(col.grants, func(i, j int) bool {
				return col.grants[i].Start < col.grants[j].Start
			})
			return col.grants
		}
		w, body := workload.Uniform{N: n}, func(int) {}
		// Room for every event of an SS run (about 12 000 at n = 5000)
		// with the drainer starved, so the ring never drops a grant.
		mbus, dbus := telemetry.NewBus(1<<16), telemetry.NewBus(1<<16)
		master := grants("master", mbus, func() (metrics.Report, error) {
			return (&localRun{Scheme: s, Workers: specs(1, 1, 1, 1), Telemetry: mbus}).RunContext(context.Background(), w, body)
		})
		fleet := grants("fleet", dbus, func() (metrics.Report, error) {
			return (&stealRun{Scheme: s, Workers: specs(1, 1, 1, 1), Telemetry: dbus}).RunContext(context.Background(), w, body)
		})
		if len(master) != len(fleet) {
			t.Errorf("%s: master granted %d chunks, fleet %d", name, len(master), len(fleet))
			continue
		}
		for i := range master {
			if master[i] != fleet[i] {
				t.Errorf("%s: grant %d differs: master %+v, fleet %+v", name, i, master[i], fleet[i])
				break
			}
		}
	}
}

// TestStealHeterogeneous mirrors TestLocalHeterogeneous on the fleet
// dialogue: WorkScale-3 workers repeat the body three times.
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

// TestStealCancellation: cancelling a job's master mid-run stops its
// grants — the workers finish what they hold and return — and a fresh
// job runs to completion after it.
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

// TestStealTelemetry: a job master's grant events reconcile with the
// aggregator and its report, and nothing is stolen or refilled: no
// runtime publishes chunk_stolen or deque_refilled any more.
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
	if snap.LocalRefills != 0 {
		t.Errorf("%d deque refills recorded, want none", snap.LocalRefills)
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
// request (each half the loop, beyond the share of a batch). The elapsed
// time the master feeds back for the first — on the request that asks
// for the second — must be the very reading its ChunkCompleted event
// (and so its trace span) carries, and the Comp metric the sum of the
// two chunks' readings.
func TestFeedbackElapsedMatchesComp(t *testing.T) {
	var fed []float64
	bus := telemetry.NewBus(0)
	log := &eventLog{}
	bus.Subscribe(log)
	sink := 0.0
	l := &localRun{Scheme: recordingScheme{fed: &fed}, Workers: specs(1), Telemetry: bus}
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
