package sim

import (
	"math"
	"reflect"
	"testing"

	"loopsched/internal/mandelbrot"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// testCluster builds the paper's machine mix scaled down: nFast
// machines with power 3 on 100 Mbit links and nSlow with power 1 on
// 10 Mbit links.
func testCluster(nFast, nSlow int) Cluster {
	var ms []Machine
	for i := 0; i < nFast; i++ {
		ms = append(ms, Machine{Name: "fast", Power: 3,
			Link: Link{Latency: 0.0002, Bandwidth: Mbit100}})
	}
	for i := 0; i < nSlow; i++ {
		ms = append(ms, Machine{Name: "slow", Power: 1,
			Link: Link{Latency: 0.001, Bandwidth: Mbit10}})
	}
	return Cluster{Machines: ms}
}

func testParams() Params {
	// Small synthetic problems: one work unit per iteration, so scale
	// the result payload down with it (the default 4 KiB per iteration
	// is calibrated for Mandelbrot columns worth ~10⁴ units each).
	return Params{BaseRate: 1e5, BytesPerIter: 1}
}

func mustRun(t *testing.T, c Cluster, s sched.Scheme, w workload.Workload, p Params) metrics.Report {
	t.Helper()
	rep, err := Run(c, s, w, p)
	if err != nil {
		t.Fatalf("%s on %s: %v", s.Name(), w.Name(), err)
	}
	return rep
}

func TestRunCoverageAllSchemes(t *testing.T) {
	c := testCluster(2, 2)
	w := workload.Uniform{N: 2000}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		rep := mustRun(t, c, s, w, testParams())
		if rep.Iterations != 2000 {
			t.Errorf("%s: %d iterations", name, rep.Iterations)
		}
		if rep.Tp <= 0 {
			t.Errorf("%s: Tp = %g", name, rep.Tp)
		}
		if rep.Chunks < 1 {
			t.Errorf("%s: no chunks", name)
		}
		if len(rep.PerWorker) != 4 {
			t.Errorf("%s: %d worker rows", name, len(rep.PerWorker))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	c := testCluster(2, 3)
	c.Machines[1].Load = LoadScript{{Start: 0.01, End: 10, Extra: 1}}
	w := workload.LinearIncreasing{N: 3000}
	a := mustRun(t, c, sched.DTSSScheme{}, w, testParams())
	b := mustRun(t, c, sched.DTSSScheme{}, w, testParams())
	if !reflect.DeepEqual(a, b) {
		t.Errorf("simulation not deterministic:\n%+v\n%+v", a, b)
	}
}

// TestDistributedBalancesComp: on a 3:1 heterogeneous cluster the
// simple scheme leaves the slow class computing roughly 3× longer
// than the fast class (the paper's Table 2: fast PEs ≈3.5 s vs slow
// ≈8–12 s), while the distributed version erases the class
// correlation and cuts T_p (Table 3) — the paper's headline result.
func TestDistributedBalancesComp(t *testing.T) {
	c := testCluster(2, 4)
	w := workload.Uniform{N: 8000}
	p := testParams()
	simple := mustRun(t, c, sched.TSSScheme{}, w, p)
	dist := mustRun(t, c, sched.DTSSScheme{}, w, p)

	classRatio := func(r metrics.Report) float64 {
		fast := (r.PerWorker[0].Comp + r.PerWorker[1].Comp) / 2
		slow := (r.PerWorker[2].Comp + r.PerWorker[3].Comp +
			r.PerWorker[4].Comp + r.PerWorker[5].Comp) / 4
		return slow / fast
	}
	rs, rd := classRatio(simple), classRatio(dist)
	// Self-scheduling partially adapts through request frequency even
	// without power knowledge, so on a uniform loop the simple ratio
	// is above 1 but not the full 3; the distributed ratio must be
	// both lower and near 1. (The full paper conditions — irregular
	// Mandelbrot columns and heavyweight results — are exercised by
	// the Table 2/3 experiment harness.)
	if rs <= 1.1 {
		t.Errorf("TSS slow/fast comp ratio %.2f, want > 1.1", rs)
	}
	if rd >= rs {
		t.Errorf("DTSS class ratio %.2f not below TSS %.2f", rd, rs)
	}
	if rd > 1.5 {
		t.Errorf("DTSS slow/fast comp ratio %.2f, want ≈1", rd)
	}
	// At this toy scale (uniform costs, near-free communication) the
	// simple scheme self-balances via request frequency, so DTSS is
	// only required not to lose; the realistic-condition T_p gap is
	// asserted by the internal/experiments Table 2/3 test.
	if dist.Tp > simple.Tp*1.10 {
		t.Errorf("DTSS Tp %.3f well above TSS %.3f", dist.Tp, simple.Tp)
	}
}

// TestDistributedFollowsPower: under DTSS the power-3 machines execute
// roughly 3× the iterations of the power-1 machines.
func TestDistributedFollowsPower(t *testing.T) {
	c := testCluster(1, 1)
	w := workload.Uniform{N: 10000}
	rep := mustRun(t, c, sched.DTSSScheme{}, w, testParams())
	fastComp := rep.PerWorker[0].Comp
	slowComp := rep.PerWorker[1].Comp
	ratio := fastComp / slowComp
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("comp times not balanced: fast %.3f vs slow %.3f", fastComp, slowComp)
	}
}

// TestSimpleIgnoresPower: a simple scheme gives both machines equal
// iteration counts, leaving the slow machine computing ~3× longer.
func TestSimpleIgnoresPower(t *testing.T) {
	c := testCluster(1, 1)
	w := workload.Uniform{N: 10000}
	rep := mustRun(t, c, sched.StaticScheme{}, w, testParams())
	ratio := rep.PerWorker[1].Comp / rep.PerWorker[0].Comp
	if ratio < 2.5 || ratio > 3.5 {
		t.Errorf("static comp ratio %.2f, want ≈3", ratio)
	}
}

// TestNonDedicatedReplan: a load spike arriving mid-run must trigger
// the distributed master's majority re-plan.
func TestNonDedicatedReplan(t *testing.T) {
	c := testCluster(2, 2)
	for i := range c.Machines {
		if i < 3 {
			c.Machines[i].Load = LoadScript{{Start: 0.05, End: 1e9, Extra: 2}}
		}
	}
	w := workload.Uniform{N: 60000}
	rep := mustRun(t, c, sched.DTSSScheme{}, w, testParams())
	if rep.Replans == 0 {
		t.Errorf("no re-plans despite majority load change (chunks=%d)", rep.Chunks)
	}
	// Ablation: the switch works.
	p := testParams()
	p.DisableReplan = true
	rep2 := mustRun(t, c, sched.DTSSScheme{}, w, p)
	if rep2.Replans != 0 {
		t.Errorf("DisableReplan leaked %d replans", rep2.Replans)
	}
}

// TestCollectAtEndSlower: the paper found piggy-backed results faster
// than collecting everything at the end (master contention). The
// simulator must reproduce that ordering.
func TestCollectAtEndSlower(t *testing.T) {
	c := testCluster(2, 6)
	w := workload.Uniform{N: 4000}
	pig := testParams()
	col := testParams()
	col.CollectAtEnd = true
	a := mustRun(t, c, sched.TSSScheme{}, w, pig)
	b := mustRun(t, c, sched.TSSScheme{}, w, col)
	if b.Iterations != a.Iterations {
		t.Fatalf("iteration mismatch %d vs %d", a.Iterations, b.Iterations)
	}
	if b.Tp <= a.Tp {
		t.Errorf("collect-at-end Tp %.3f not above piggy-back %.3f", b.Tp, a.Tp)
	}
}

// TestChunkCountTracksScheme: SS issues one service per iteration,
// CSS(k) one per k iterations.
func TestChunkCountTracksScheme(t *testing.T) {
	c := testCluster(1, 1)
	w := workload.Uniform{N: 600}
	ss := mustRun(t, c, sched.SelfScheduling, w, testParams())
	if ss.Chunks != 600 {
		t.Errorf("SS chunks = %d, want 600", ss.Chunks)
	}
	css := mustRun(t, c, sched.CSSScheme{K: 100}, w, testParams())
	if css.Chunks != 6 {
		t.Errorf("CSS(100) chunks = %d, want 6", css.Chunks)
	}
	if ss.MeanWait()+ss.MeanComm() <= css.MeanWait()+css.MeanComm() {
		t.Errorf("SS overhead (%.4f) not above CSS(100) (%.4f)",
			ss.MeanWait()+ss.MeanComm(), css.MeanWait()+css.MeanComm())
	}
}

// TestTimesAddUp: each worker's Comm+Wait+Comp should account for
// (almost all of) its lifetime, and Tp must dominate every component.
func TestTimesAddUp(t *testing.T) {
	c := testCluster(2, 2)
	w := workload.LinearDecreasing{N: 4000}
	rep := mustRun(t, c, sched.TFSSScheme{}, w, testParams())
	for i, tt := range rep.PerWorker {
		if tt.Comp < 0 || tt.Wait < 0 || tt.Comm < 0 {
			t.Errorf("worker %d negative component: %+v", i, tt)
		}
		if tt.Total() > rep.Tp+1e-9 {
			t.Errorf("worker %d total %.4f exceeds Tp %.4f", i, tt.Total(), rep.Tp)
		}
	}
}

func TestRunErrors(t *testing.T) {
	w := workload.Uniform{N: 100}
	if _, err := Run(Cluster{}, sched.TSSScheme{}, w, Params{}); err == nil {
		t.Error("empty cluster accepted")
	}
	bad := Cluster{Machines: []Machine{{Power: -1}}}
	if _, err := Run(bad, sched.TSSScheme{}, w, Params{}); err == nil {
		t.Error("bad machine accepted")
	}
}

// TestEmptyWorkload: a zero-iteration loop terminates immediately with
// zero computation.
func TestEmptyWorkload(t *testing.T) {
	c := testCluster(1, 1)
	rep := mustRun(t, c, sched.GSSScheme{}, workload.Uniform{N: 0}, testParams())
	if rep.Iterations != 0 || rep.Chunks != 0 {
		t.Errorf("empty loop: %+v", rep)
	}
	for _, tt := range rep.PerWorker {
		if tt.Comp != 0 {
			t.Errorf("computation on empty loop: %+v", tt)
		}
	}
}

// TestFasterLinksLessComm: upgrading the slow links must reduce the
// slow workers' communication time.
func TestFasterLinksLessComm(t *testing.T) {
	w := workload.Uniform{N: 4000}
	slow := testCluster(0, 4)
	fast := testCluster(0, 4)
	for i := range fast.Machines {
		fast.Machines[i].Link = Link{Latency: 0.0002, Bandwidth: Mbit100}
	}
	a := mustRun(t, slow, sched.FSSScheme{}, w, testParams())
	b := mustRun(t, fast, sched.FSSScheme{}, w, testParams())
	if b.MeanComm() >= a.MeanComm() {
		t.Errorf("100 Mbit comm %.4f not below 10 Mbit %.4f", b.MeanComm(), a.MeanComm())
	}
}

// TestWeightedFactoringUsesStaticPowers: WF balances a dedicated
// heterogeneous cluster (it knows the powers) but, unlike DFSS, cannot
// react to run-time load.
func TestWeightedFactoringUsesStaticPowers(t *testing.T) {
	c := testCluster(1, 1)
	w := workload.Uniform{N: 10000}
	rep := mustRun(t, c, sched.WFScheme{}, w, testParams())
	ratio := rep.PerWorker[0].Comp / rep.PerWorker[1].Comp
	if ratio < 0.6 || ratio > 1.6 {
		t.Errorf("WF dedicated comp ratio %.2f, want ≈1", ratio)
	}

	// Now overload the fast machine: WF keeps feeding it 3× work,
	// DFSS adapts. DFSS must finish sooner.
	c.Machines[0].Load = LoadScript{{Start: 0, End: 1e9, Extra: 2}}
	wf := mustRun(t, c, sched.WFScheme{}, w, testParams())
	dfss := mustRun(t, c, sched.NewDFSS(), w, testParams())
	if dfss.Tp >= wf.Tp {
		t.Errorf("DFSS Tp %.3f not below WF %.3f under load", dfss.Tp, wf.Tp)
	}
}

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// TestPrefetchHidesCommunication: with per-chunk compute comparable to
// the master round-trip, the pipelined protocol overlaps the two and
// finishes measurably sooner than the serial request–reply cycle.
func TestPrefetchHidesCommunication(t *testing.T) {
	c := testCluster(0, 2)
	w := workload.Uniform{N: 3000}
	p := testParams()
	pre := p
	pre.Prefetch = true
	ser := mustRun(t, c, sched.CSSScheme{K: 300}, w, p)
	pip := mustRun(t, c, sched.CSSScheme{K: 300}, w, pre)
	if pip.Iterations != 3000 || ser.Iterations != 3000 {
		t.Fatalf("iterations: serial %d, pipelined %d", ser.Iterations, pip.Iterations)
	}
	if pip.Tp >= ser.Tp*0.9 {
		t.Errorf("pipelined Tp %.4f not measurably below serial %.4f", pip.Tp, ser.Tp)
	}
	// Pipelined runs expose no Comm; the serial run exposes no Idle.
	if pip.MeanComm() != 0 {
		t.Errorf("pipelined MeanComm = %g, want 0", pip.MeanComm())
	}
	if ser.MeanIdle() != 0 {
		t.Errorf("serial MeanIdle = %g, want 0", ser.MeanIdle())
	}
	if h := metrics.HiddenComm(ser, pip); h <= 0 {
		t.Errorf("HiddenComm = %g, want > 0", h)
	}
}

// TestPrefetchBindsLate is the simulator's half of the late-binding
// rule, on the paper's own loop: Mandelbrot columns under TFSS, on two
// equal machines and on the 3 fast + 5 slow cluster. Requesting the next
// chunk one round trip before the current one ends hides the round trip
// without claiming the chunk any earlier than that takes, so the
// pipelined run must finish no later than the serial one and balance
// compute time no worse — a pipeline that binds early wins the round
// trips and loses them again, and more, in the tail. It must agree with
// exec.TestPrefetchBindsLate on the real runtime, or the simulator
// predicts a win the runtime does not deliver.
func TestPrefetchBindsLate(t *testing.T) {
	mp := mandelbrot.Params{Region: mandelbrot.PaperRegion, Width: 2000, Height: 200}
	w := workload.FromCosts{Label: "mandelbrot", Costs: mandelbrot.ColumnCosts(mp)}
	p := Params{BaseRate: 3e6, BytesPerIter: float64(2 * mp.Height)}
	pre := p
	pre.Prefetch = true
	for name, c := range map[string]Cluster{"2 equal": testCluster(2, 0), "3 fast + 5 slow": testCluster(3, 5)} {
		ser := mustRun(t, c, sched.TFSSScheme{}, w, p)
		pip := mustRun(t, c, sched.TFSSScheme{}, w, pre)
		if pip.Chunks != ser.Chunks || pip.Iterations != ser.Iterations {
			t.Fatalf("%s: pipelined %d chunks / %d iterations, serial %d / %d",
				name, pip.Chunks, pip.Iterations, ser.Chunks, ser.Iterations)
		}
		if pip.Tp > ser.Tp {
			t.Errorf("%s: pipelined Tp %.4f above serial %.4f", name, pip.Tp, ser.Tp)
		}
		if pip.CompImbalance() > ser.CompImbalance()+1e-9 {
			t.Errorf("%s: pipelined compute imbalance %.3f worse than serial %.3f",
				name, pip.CompImbalance(), ser.CompImbalance())
		}
		t.Logf("%s: Tp serial %.4f pipelined %.4f, imbalance %.3f / %.3f",
			name, ser.Tp, pip.Tp, ser.CompImbalance(), pip.CompImbalance())
	}
}

// TestPrefetchExposesStalls: when the round-trip dwarfs the kernel the
// pipeline cannot hide it all, and the residue must surface as Idle.
func TestPrefetchExposesStalls(t *testing.T) {
	c := testCluster(0, 2)
	p := testParams()
	p.Prefetch = true
	rep := mustRun(t, c, sched.CSSScheme{K: 10}, workload.Uniform{N: 2000}, p)
	if rep.MeanIdle() <= 0 {
		t.Errorf("MeanIdle = %g, want > 0 with round-trip ≫ compute", rep.MeanIdle())
	}
}

// TestPrefetchCoverageAllSchemes: the pipelined protocol conserves
// every iteration and stays deterministic under every scheme,
// including the distributed ones with their gather phase and re-plans.
func TestPrefetchCoverageAllSchemes(t *testing.T) {
	c := testCluster(2, 2)
	c.Machines[1].Load = LoadScript{{Start: 0.01, End: 1e9, Extra: 1}}
	w := workload.LinearIncreasing{N: 2000}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		p := testParams()
		p.Prefetch = true
		rep := mustRun(t, c, s, w, p)
		if rep.Iterations != 2000 {
			t.Errorf("%s: %d iterations", name, rep.Iterations)
		}
		again := mustRun(t, c, s, w, p)
		if !reflect.DeepEqual(rep, again) {
			t.Errorf("%s: pipelined run not deterministic", name)
		}
		for i, tt := range rep.PerWorker {
			if tt.Comm != 0 {
				t.Errorf("%s: worker %d charged Comm %.4f in pipelined mode", name, i, tt.Comm)
			}
			if tt.Idle < 0 || tt.Comp < 0 {
				t.Errorf("%s: worker %d negative component: %+v", name, i, tt)
			}
			if tt.Total() > rep.Tp+1e-9 {
				t.Errorf("%s: worker %d total %.4f exceeds Tp %.4f", name, i, tt.Total(), rep.Tp)
			}
		}
	}
}

// TestPrefetchTraceCoverage: the pipelined trace still tiles the
// iteration space exactly and never overruns Tp.
func TestPrefetchTraceCoverage(t *testing.T) {
	c := testCluster(1, 2)
	tr := &trace.Trace{}
	p := testParams()
	p.Prefetch = true
	p.Trace = tr
	rep := mustRun(t, c, sched.TSSScheme{}, workload.Uniform{N: 2500}, p)
	if err := tr.CoverageError(2500); err != nil {
		t.Error(err)
	}
	if tr.Len() != rep.Chunks {
		t.Errorf("%d traced chunks vs %d reported", tr.Len(), rep.Chunks)
	}
	if _, end := tr.Span(); end > rep.Tp+1e-9 {
		t.Errorf("trace end %.4f after Tp %.4f", end, rep.Tp)
	}
}

// TestPrefetchEmptyWorkload: a zero-iteration pipelined loop stops at
// the first reply.
func TestPrefetchEmptyWorkload(t *testing.T) {
	c := testCluster(1, 1)
	p := testParams()
	p.Prefetch = true
	rep := mustRun(t, c, sched.GSSScheme{}, workload.Uniform{N: 0}, p)
	if rep.Iterations != 0 || rep.Chunks != 0 {
		t.Errorf("empty pipelined loop: %+v", rep)
	}
}

// TestPrefetchRejectsCollectAtEnd: the pipeline piggy-backs results by
// construction; asking it to also hold them until the end is an error.
func TestPrefetchRejectsCollectAtEnd(t *testing.T) {
	c := testCluster(1, 1)
	p := testParams()
	p.Prefetch = true
	p.CollectAtEnd = true
	if _, err := Run(c, sched.TSSScheme{}, workload.Uniform{N: 100}, p); err == nil {
		t.Error("Prefetch+CollectAtEnd accepted")
	}
}

// TestDifferentialAgainstPolicy: with a single worker the simulator's
// request order is deterministic, so the traced chunk sequence must
// equal the policy's raw sequence exactly — tying the DES master to
// the scheme library chunk for chunk.
func TestDifferentialAgainstPolicy(t *testing.T) {
	c := testCluster(1, 0)
	const n = 5000
	for _, name := range []string{"SS", "CSS(16)", "GSS", "TSS", "FSS", "FISS", "TFSS", "DTSS", "DFSS", "DTFSS", "DGSS", "AWF"} {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{}
		p := testParams()
		p.Trace = tr
		mustRun(t, c, s, workload.Uniform{N: n}, p)
		var simSeq []int
		for _, e := range tr.Events() {
			simSeq = append(simSeq, e.Size)
		}
		// The simulated single worker reports ACP 30 (power 3, scale
		// 10); replay the policy with the same power so distributed
		// schemes see identical inputs.
		pol, err := s.NewPolicy(sched.Config{Iterations: n, Workers: 1, Powers: []float64{30}})
		if err != nil {
			t.Fatal(err)
		}
		var polSeq []int
		for {
			a, ok := pol.Next(sched.Request{Worker: 0, ACP: 30})
			if !ok {
				break
			}
			polSeq = append(polSeq, a.Size)
		}
		if len(simSeq) != len(polSeq) {
			t.Fatalf("%s: sim %d chunks vs policy %d\nsim %v\npol %v",
				name, len(simSeq), len(polSeq), simSeq, polSeq)
		}
		for i := range simSeq {
			if simSeq[i] != polSeq[i] {
				t.Fatalf("%s: chunk %d differs: sim %d vs policy %d", name, i, simSeq[i], polSeq[i])
			}
		}
	}
}

// TestSharedBus: serialising every transfer on one medium must slow
// the run, and the more workers contend, the worse it gets; coverage
// and determinism are unaffected.
func TestSharedBus(t *testing.T) {
	w := workload.Uniform{N: 4000}
	p := testParams()
	p.BytesPerIter = 256 // enough traffic to make the medium matter
	bus := p
	bus.SharedBus = true

	c := testCluster(2, 6)
	indep := mustRun(t, c, sched.TSSScheme{}, w, p)
	shared := mustRun(t, c, sched.TSSScheme{}, w, bus)
	if shared.Iterations != 4000 {
		t.Fatalf("bus run lost iterations: %d", shared.Iterations)
	}
	if shared.Tp <= indep.Tp {
		t.Errorf("shared bus Tp %.4f not above independent links %.4f", shared.Tp, indep.Tp)
	}
	// Determinism holds in bus mode too.
	again := mustRun(t, c, sched.TSSScheme{}, w, bus)
	if !reflect.DeepEqual(shared, again) {
		t.Error("bus mode not deterministic")
	}
	// Contention grows with the worker count: the bus penalty at p=8
	// exceeds the penalty at p=2.
	c2 := testCluster(1, 1)
	i2 := mustRun(t, c2, sched.TSSScheme{}, w, p)
	s2 := mustRun(t, c2, sched.TSSScheme{}, w, bus)
	penalty2 := s2.Tp - i2.Tp
	penalty8 := shared.Tp - indep.Tp
	if penalty8 <= penalty2 {
		t.Errorf("bus penalty did not grow with p: %.4f (p=2) vs %.4f (p=8)", penalty2, penalty8)
	}
}

// TestFeatureInteractions: shared bus + collect-at-end + trace +
// replan all active at once still cover the loop exactly and stay
// deterministic.
func TestFeatureInteractions(t *testing.T) {
	c := testCluster(2, 3)
	for _, idx := range []int{0, 2, 3} {
		c.Machines[idx].Load = LoadScript{{Start: 0.02, End: 1e9, Extra: 2}}
	}
	run := func() (metrics.Report, *trace.Trace) {
		tr := &trace.Trace{}
		p := testParams()
		p.SharedBus = true
		p.CollectAtEnd = true
		p.Trace = tr
		return mustRun(t, c, sched.DTSSScheme{}, workload.LinearIncreasing{N: 2500}, p), tr
	}
	rep1, tr1 := run()
	rep2, _ := run()
	if !reflect.DeepEqual(rep1, rep2) {
		t.Errorf("interaction run not deterministic")
	}
	if err := tr1.CoverageError(2500); err != nil {
		t.Errorf("trace coverage: %v", err)
	}
	if rep1.Iterations != 2500 {
		t.Errorf("iterations %d", rep1.Iterations)
	}
}

// TestChunkCountMatchesAnalyticTSS: simple TSS's chunk count is a
// pure function of (I, p) — the number of master services in the
// simulator equals the clipped trapezoid length regardless of
// request interleaving.
func TestChunkCountMatchesAnalyticTSS(t *testing.T) {
	for _, p := range []int{2, 4, 8} {
		for _, n := range []int{1000, 4096, 50000} {
			c := testCluster((p+1)/2, p/2)
			rep := mustRun(t, c, sched.TSSScheme{}, workload.Uniform{N: n}, testParams())
			seq, err := sched.Sequence(sched.TSSScheme{}, n, p)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Chunks != len(seq) {
				t.Errorf("p=%d I=%d: sim %d chunks vs sequence %d", p, n, rep.Chunks, len(seq))
			}
		}
	}
}

// TestAWFBalancesThroughFeedback: the timing-feedback scheme also
// erases the fast/slow class correlation, like the ACP-driven schemes.
func TestAWFBalancesThroughFeedback(t *testing.T) {
	c := testCluster(2, 4)
	w := workload.Uniform{N: 8000}
	rep := mustRun(t, c, sched.AWFScheme{}, w, testParams())
	fast := (rep.PerWorker[0].Comp + rep.PerWorker[1].Comp) / 2
	slow := (rep.PerWorker[2].Comp + rep.PerWorker[3].Comp +
		rep.PerWorker[4].Comp + rep.PerWorker[5].Comp) / 4
	if ratio := slow / fast; ratio > 1.5 {
		t.Errorf("AWF slow/fast comp ratio %.2f, want ≈1", ratio)
	}
}

// TestTraceCrossChecks: the recorded trace must tile the iteration
// space exactly and agree with the report's chunk count and T_p.
func TestTraceCrossChecks(t *testing.T) {
	c := testCluster(2, 3)
	c.Machines[4].Load = LoadScript{{Start: 0.01, End: 1e9, Extra: 1}}
	for _, name := range []string{"TSS", "FSS", "DTSS", "DTFSS", "DGSS"} {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{}
		p := testParams()
		p.Trace = tr
		rep := mustRun(t, c, s, workload.LinearIncreasing{N: 3000}, p)
		if err := tr.CoverageError(3000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if tr.Len() != rep.Chunks {
			t.Errorf("%s: %d traced chunks vs %d reported", name, tr.Len(), rep.Chunks)
		}
		if _, end := tr.Span(); end > rep.Tp+1e-9 {
			t.Errorf("%s: trace end %.4f after Tp %.4f", name, end, rep.Tp)
		}
		if tr.Scheme != name {
			t.Errorf("trace scheme %q", tr.Scheme)
		}
		if u := tr.MeanUtilization(); u <= 0 || u > 1 {
			t.Errorf("%s: utilization %g", name, u)
		}
	}
}

// TestGatherReleasesTiesByWorkerID pins the simulated master's step
// 1(a) to exec.TestGatherReleasesByDecreasingACP: once every slave has
// reported, the queued first requests draw in decreasing order of ACP,
// ties by worker id — not by arrival. Worker 1's link is the faster, so
// its request arrives first; the two report the same ACP, so worker 0
// draws the first chunk.
func TestGatherReleasesTiesByWorkerID(t *testing.T) {
	c := Cluster{Machines: []Machine{
		{Name: "far", Power: 1, Link: Link{Latency: 0.01, Bandwidth: Mbit10}},
		{Name: "near", Power: 1, Link: Link{Latency: 0.0001, Bandwidth: Mbit100}},
	}}
	for _, name := range []string{"DTSS", "DGSS"} {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := &trace.Trace{}
		p := testParams()
		p.Trace = tr
		mustRun(t, c, s, workload.Uniform{N: 1000}, p)
		for _, e := range tr.Events() {
			if e.Start == 0 && e.Worker != 0 {
				t.Errorf("%s: worker %d drew the first chunk, want worker 0", name, e.Worker)
			}
		}
	}
}

// TestPrefetchShipsZeroCostChunks: a chunk of zero-cost iterations
// finishes the instant it starts, at the instant its refill leaves, and
// the refill must still deliver it together with the chunk before it —
// the run's exactly-once check fails on a chunk that is never shipped.
func TestPrefetchShipsZeroCostChunks(t *testing.T) {
	costs := make([]float64, 3000)
	for i := range costs {
		if i%7 == 0 {
			costs[i] = 50
		}
	}
	w := workload.FromCosts{Label: "sparse", Costs: costs}
	p := testParams()
	p.Prefetch = true
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if rep := mustRun(t, testCluster(2, 3), s, w, p); rep.Iterations != len(costs) {
			t.Errorf("%s: %d of %d iterations", name, rep.Iterations, len(costs))
		}
	}
}
