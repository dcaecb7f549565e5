package main

import (
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync/atomic"
	"time"

	"loopsched"
)

// The five workloads. Each exists to stress layers the others bypass;
// README.md records which end-to-end metric each layer probe should
// move on which workload.
var workloads = []workload{
	{
		name:      "mandel_homog_tfss",
		why:       "body-dominated Mandelbrot, ~8 TFSS chunks on equal workers: tail imbalance and batch/window policy decide T_p, per-chunk cost must not",
		hetero:    false,
		nextProbe: "tfss",
		fastShare: 0.5,
		gen:       genMandel(func() loopsched.Scheme { return loopsched.NewTFSS() }),
	},
	{
		name:      "mandel_hetero_dtss",
		why:       "the paper's headline case: Mandelbrot on 1:3 workers under DTSS, the adaptive path where the ledger falls back to the master",
		hetero:    true,
		nextProbe: "dtss",
		fastShare: 0.5,
		gen:       genMandel(func() loopsched.Scheme { return loopsched.NewDTSS() }),
	},
	{
		name:      "fine_css",
		why:       "65536 near-empty iterations in 16384 CSS(4) chunks on equal workers: scheduling overhead is nearly all of p*T_p, on the fixed-chunk fast paths",
		hetero:    false,
		nextProbe: "css",
		fastShare: 0.1,
		gen:       genFine(func() loopsched.Scheme { return loopsched.NewCSS(4) }),
	},
	{
		name:      "fine_dcss_hetero",
		why:       "the same fine loop under DCSS(4) on 1:3 workers: mutex-guarded grants, ACP on the wire, ledger ineligible - the locked path",
		hetero:    true,
		nextProbe: "dcss",
		fastShare: 0.1,
		gen:       genFine(func() loopsched.Scheme { return loopsched.NewDCSS(4) }),
	},
	{
		name:      "small_loops",
		why:       "32 short FSS loops from four tenants: per-run fixed cost (listen/dial/teardown, spawn, ledger build) dominates, per-chunk layers do little",
		hetero:    false,
		nextProbe: "tfss",
		fastShare: 0.1,
		gen:       genSmallLoops,
	},
}

// workload names one benchmark scenario and how to generate an instance
// of it from a seed.
type workload struct {
	name   string
	why    string
	hetero bool
	// nextProbe names the sched.next_ns.* probe that prices one grant
	// of the workload's scheme in the overhead budget.
	nextProbe string
	// fastShare is the share of a cell's fastest repetitions that
	// tp_s.<R> averages (see fastMean). With a handful of chunks the
	// chunk plan makes cells bimodal — which worker wins the first grant
	// decides it — and the faster half keeps the majority mode in the
	// headline; thousands of chunks or a batch of 32 loops leave one mode
	// whose spread is the host's, and the fastest tenth sheds most of it.
	fastShare float64
	// gen builds the loops; tiny selects the smoke-test size.
	gen func(seed int64, tiny bool) []*loop
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// workScales returns the fleet's WorkScale vector: equal workers, or
// the paper's 3:1 fast:slow ratio alternating 1,3,1,3...
func (w workload) workScales(p int) []int {
	ws := make([]int, p)
	for i := range ws {
		ws[i] = 1
		if w.hetero && i%2 == 1 {
			ws[i] = 3
		}
	}
	return ws
}

func workerSpecs(scales []int) []*loopsched.WorkerSpec {
	out := make([]*loopsched.WorkerSpec, len(scales))
	for i, s := range scales {
		out[i] = &loopsched.WorkerSpec{WorkScale: s}
	}
	return out
}

// loop is one generated parallel loop plus the harness-owned state a
// run of it is verified against. The runtimes only ever see scheme,
// a Uniform workload of n iterations, and the kernel closure.
type loop struct {
	scheme loopsched.Scheme
	n      int
	tenant string
	// compute is the pure per-iteration work: the payload a
	// distributed runtime ships to its master and the result checksum.
	// nil means the body is the execution count alone.
	compute func(i int) ([]byte, uint32)

	ref     []uint32  // serial reference checksums (nil when compute is nil)
	counts  []int32   // executions per iteration in the current run
	sums    []uint32  // checksum per iteration in the current run
	serialS float64   // the untimed serial run
	bodyS   []float64 // harness-timed body seconds per iteration (see timeBodies)
}

func newLoop(scheme loopsched.Scheme, n int, compute func(i int) ([]byte, uint32)) *loop {
	l := &loop{scheme: scheme, n: n, compute: compute, counts: make([]int32, n)}
	if compute != nil {
		l.sums = make([]uint32, n)
	}
	return l
}

// reset clears the per-run state.
func (l *loop) reset() {
	clear(l.counts)
	clear(l.sums)
}

// kernel returns the iteration body handed to a runtime. It records
// the execution and the result checksum in harness memory and returns
// the payload.
func (l *loop) kernel() loopsched.Kernel {
	if l.compute == nil {
		return func(i int) []byte {
			atomic.AddInt32(&l.counts[i], 1)
			return nil
		}
	}
	return func(i int) []byte {
		out, sum := l.compute(i)
		atomic.AddInt32(&l.counts[i], 1)
		atomic.StoreUint32(&l.sums[i], sum)
		return out
	}
}

// serial runs the loop once on the calling goroutine, keeps the result
// checksums as the reference, and returns the elapsed seconds.
func (l *loop) serial() float64 {
	l.reset()
	k := l.kernel()
	t0 := time.Now()
	for i := 0; i < l.n; i++ {
		k(i)
	}
	l.serialS = time.Since(t0).Seconds()
	if l.sums != nil {
		l.ref = append(l.ref[:0], l.sums...)
	}
	return l.serialS
}

// timeBodies prices every iteration: it runs the loop serially with
// each kernel call bracketed by the clock, and spreads what the timed
// calls sum to beyond the untimed serial run — the clock's own cost,
// 80 ns around the 100 ns body of small_loops — evenly over them. A
// run's body time is then cost × executions, iteration by iteration.
// Bodies are timed here and not inside the parallel runs because a
// worker preempted mid-body (the telemetry drainer is a third runnable
// goroutine on two cores) would book its time off the CPU as body.
func (l *loop) timeBodies() {
	l.reset()
	k := l.kernel()
	l.bodyS = make([]float64, l.n)
	sum := 0.0
	for i := range l.bodyS {
		t0 := time.Now()
		k(i)
		l.bodyS[i] = time.Since(t0).Seconds()
		sum += l.bodyS[i]
	}
	clock := (sum - l.serialS) / float64(l.n)
	for i := range l.bodyS {
		l.bodyS[i] = max(0, l.bodyS[i]-clock)
	}
}

// bodySeconds is the body time of the current run's executions of
// iterations [start, start+size).
func (l *loop) bodySeconds(start, size int) float64 {
	s := 0.0
	for i := start; i < start+size; i++ {
		s += float64(atomic.LoadInt32(&l.counts[i])) * l.bodyS[i]
	}
	return s
}

// verify checks one finished run: every iteration executed by exactly
// one worker (its count equals one worker's WorkScale) and every result
// checksum equal to the serial reference.
func (l *loop) verify(scales []int) error {
	for i, c := range l.counts {
		ok := false
		for _, s := range scales {
			if int(c) == s {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("iteration %d executed %d times, want the WorkScale of one worker %v", i, c, scales)
		}
	}
	for i, s := range l.sums {
		if s != l.ref[i] {
			return fmt.Errorf("iteration %d: result checksum %08x differs from the serial reference %08x", i, s, l.ref[i])
		}
	}
	return nil
}

// The mandel_* image: 2000 columns keep the paper-scale chunk plan
// (TFSS hands out ~8 chunks), 250 rows keep one run near 40 ms so a
// cell collects some fifty repetitions in its share of a run — enough
// for the mean of a bimodal cell to settle.
const (
	mandelWidth   = 2000
	mandelHeight  = 250
	mandelMaxIter = 160
)

// genMandel is the paper's test problem: one iteration per image
// column, the result being the shaded column bytes, so rpc and mp carry
// real payloads. The seed pans the region by at most 0.1 % — two
// columns: enough to change every input byte, too little to move the
// heavy columns across the chunk plan and with them the tail, which a
// 1 % pan did by 15 % on the paths that batch.
func genMandel(scheme func() loopsched.Scheme) func(int64, bool) []*loop {
	return func(seed int64, tiny bool) []*loop {
		rng := rand.New(rand.NewSource(seed))
		r := loopsched.PaperRegion
		dx := (rng.Float64()*2 - 1) * 0.001 * (r.XMax - r.XMin)
		dy := (rng.Float64()*2 - 1) * 0.001 * (r.YMax - r.YMin)
		r.XMin, r.XMax, r.YMin, r.YMax = r.XMin+dx, r.XMax+dx, r.YMin+dy, r.YMax+dy
		p := loopsched.MandelbrotParams{Region: r, Width: mandelWidth, Height: mandelHeight, MaxIter: mandelMaxIter}
		if tiny {
			p.Width, p.Height, p.MaxIter = 96, 24, 32
		}
		return []*loop{newLoop(scheme(), p.Width, func(c int) ([]byte, uint32) {
			col := loopsched.MandelbrotShadedColumn(p, c)
			return col, crc32.ChecksumIEEE(col)
		})}
	}
}

// genFine is the scheduling-overhead loop: the body only counts its
// own execution. The seed does not change it.
func genFine(scheme func() loopsched.Scheme) func(int64, bool) []*loop {
	return func(_ int64, tiny bool) []*loop {
		n := 1 << 16
		if tiny {
			n = 512
		}
		return []*loop{newLoop(scheme(), n, nil)}
	}
}

// spinRounds sizes the small_loops body: a dependent multiply-add
// chain of about 200 ns.
const spinRounds = 100

// genSmallLoops makes 32 loops whose lengths step evenly through
// [2048, 8192] in a seed-drawn order, with a seed-drawn salt per loop;
// tenants rotate round-robin. The total work is the same for every
// seed, so a seed changes the inputs and the order, not the load.
func genSmallLoops(seed int64, tiny bool) []*loop {
	rng := rand.New(rand.NewSource(seed))
	count, lo, hi := 32, 2048, 8192
	if tiny {
		count, lo, hi = 4, 48, 96
	}
	loops := make([]*loop, count)
	order := rng.Perm(count)
	for j := range loops {
		n := lo + (hi-lo)*order[j]/(count-1)
		salt := rng.Uint32()
		loops[j] = newLoop(loopsched.NewFSS(), n, func(i int) ([]byte, uint32) {
			x := uint32(i)*2654435761 ^ salt
			for r := 0; r < spinRounds; r++ {
				x = x*1664525 + 1013904223
			}
			return nil, x
		})
		loops[j].tenant = fmt.Sprintf("tenant-%d", j%4)
	}
	return loops
}
