// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices documented in DESIGN.md §6 and
// micro-benchmarks of the hot paths.
//
//	go test -bench=. -benchmem            # everything, paper scale
//	go test -bench=BenchmarkTable2 -v     # one artefact, with its rows
//
// Each artefact bench prints the reproduced rows once (the same
// layout the paper uses) and reports the headline numbers as custom
// benchmark metrics so regressions are machine-visible.
package loopsched_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"net"
	"net/rpc"
	"sync"
	"testing"

	"loopsched"
	"loopsched/internal/acp"
	"loopsched/internal/experiments"
	"loopsched/internal/ledger"
	"loopsched/internal/mandelbrot"
	"loopsched/internal/metrics"
	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/sim"
	"loopsched/internal/tree"
	"loopsched/internal/workload"
)

var printGuards sync.Map

// printOnce emits an artefact's rows a single time per test binary,
// no matter how many benchmark iterations run.
func printOnce(key, text string) {
	if _, loaded := printGuards.LoadOrStore(key, true); !loaded {
		fmt.Println(text)
	}
}

func bestTp(reps []metrics.Report) float64 {
	best := math.Inf(1)
	for _, r := range reps {
		if r.Tp < best {
			best = r.Tp
		}
	}
	return best
}

// ---- Tables ----

func BenchmarkTable1(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1()
	}
	b.StopTimer()
	printOnce("table1", out)
}

func BenchmarkTable2(b *testing.B) {
	cfg := experiments.Default()
	var res experiments.TableResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("table2", res.Format())
	b.ReportMetric(bestTp(res.Dedicated), "bestTp_ded_s")
	b.ReportMetric(bestTp(res.NonDedicated), "bestTp_non_s")
}

func BenchmarkTable3(b *testing.B) {
	cfg := experiments.Default()
	var res experiments.TableResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table3(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("table3", res.Format())
	b.ReportMetric(bestTp(res.Dedicated), "bestTp_ded_s")
	b.ReportMetric(bestTp(res.NonDedicated), "bestTp_non_s")
}

// ---- Figures ----

func BenchmarkFigure1(b *testing.B) {
	cfg := experiments.Default()
	var orig, reord []float64
	for i := 0; i < b.N; i++ {
		orig, reord = experiments.Figure1(cfg)
	}
	b.StopTimer()
	bo := workload.Describe(workload.FromCosts{Costs: orig}, cfg.Width/8)
	br := workload.Describe(workload.FromCosts{Costs: reord}, cfg.Width/8)
	printOnce("fig1", fmt.Sprintf(
		"Figure 1: Mandelbrot per-column cost, %d columns\n"+
			"  original : min %.0f max %.0f windowCV %.3f\n"+
			"  reordered: min %.0f max %.0f windowCV %.3f (S_f = %d)",
		len(orig), bo.Min, bo.Max, bo.WindowCV, br.Min, br.Max, br.WindowCV, cfg.Sf))
	b.ReportMetric(bo.WindowCV, "origCV")
	b.ReportMetric(br.WindowCV, "reordCV")
}

func BenchmarkFigure2(b *testing.B) {
	p := mandelbrot.Params{Region: mandelbrot.PaperRegion, Width: 300, Height: 300, MaxIter: 160}
	for i := 0; i < b.N; i++ {
		im := mandelbrot.Render(p)
		if im.Bounds().Dx() != 300 {
			b.Fatal("bad render")
		}
	}
	printOnce("fig2", "Figure 2: Mandelbrot fractal — render via cmd/mandelbrot -o mandel.png")
}

func benchFigure(b *testing.B, num int) {
	cfg := experiments.Default()
	var fig experiments.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.Figure(num, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce(fmt.Sprintf("fig%d", num), fig.Format())
	// Report each scheme's Sp(8) so curve shifts show up in benchstat.
	for name, curve := range fig.Curves {
		b.ReportMetric(curve[len(curve)-1].Sp, "Sp8_"+name)
	}
}

func BenchmarkFigure4(b *testing.B) { benchFigure(b, 4) }
func BenchmarkFigure5(b *testing.B) { benchFigure(b, 5) }
func BenchmarkFigure6(b *testing.B) { benchFigure(b, 6) }
func BenchmarkFigure7(b *testing.B) { benchFigure(b, 7) }

// BenchmarkScalingStudy extends the speedup figures to p = 32 (the
// paper's natural future work; see EXPERIMENTS.md).
func BenchmarkScalingStudy(b *testing.B) {
	cfg := experiments.Default()
	var fig experiments.FigureResult
	var err error
	for i := 0; i < b.N; i++ {
		fig, err = experiments.ScalingStudy(cfg, experiments.DistributedSchemes(), nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	printOnce("scaling", fig.Format())
	for name, curve := range fig.Curves {
		b.ReportMetric(curve[len(curve)-1].Sp, "Sp32_"+name)
	}
}

// ---- Ablations (DESIGN.md §6) ----

// BenchmarkAblationFSSRounding compares the paper's half-even FSS
// rounding against the classic ceiling formulation.
func BenchmarkAblationFSSRounding(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	c := experiments.Cluster(8, false)
	for _, variant := range []struct {
		name string
		s    sched.Scheme
	}{
		{"half-even", sched.FSSScheme{Round: sched.RoundHalfEven}},
		{"ceil", sched.FSSScheme{Round: sched.RoundCeil}},
	} {
		b.Run(variant.name, func(b *testing.B) {
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, variant.s, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(float64(rep.Chunks), "chunks")
		})
	}
}

// BenchmarkAblationACPScale compares the original DTSS integer ACP
// (scale 1, §5.2's stall-prone variant) against the decimal scales.
func BenchmarkAblationACPScale(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	c := experiments.Cluster(8, true)
	for _, scale := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("scale=%d", scale), func(b *testing.B) {
			p := cfg.SimParams()
			p.ACP = acp.Model{Scale: scale}
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, sched.DTSSScheme{}, w, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(rep.CompImbalance(), "imbalance")
		})
	}
}

// BenchmarkAblationSamplingSf sweeps the sampling-reorder frequency.
func BenchmarkAblationSamplingSf(b *testing.B) {
	cfg := experiments.Small()
	c := experiments.Cluster(8, false)
	base := workload.FromCosts{
		Label: "mandel",
		Costs: mandelbrot.ColumnCosts(mandelbrot.Params{
			Region: mandelbrot.PaperRegion, Width: cfg.Width, Height: cfg.Height, MaxIter: cfg.MaxIter,
		}),
	}
	for _, sf := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sf=%d", sf), func(b *testing.B) {
			var w workload.Workload = base
			if sf > 1 {
				w = workload.Reorder(base, sf)
			}
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, sched.FSSScheme{}, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
		})
	}
}

// BenchmarkAblationFeedback compares the two run-time adaptation
// channels on a loaded cluster: the paper's run-queue-based ACP
// (DFSS) versus measured-rate feedback (AWF). ACP reacts before the
// slowdown is observed; AWF needs a chunk to notice but sees effects
// the run queue cannot.
func BenchmarkAblationFeedback(b *testing.B) {
	cfg := experiments.Default()
	cfg.Width = 1000
	w := cfg.Workload()
	c := experiments.Cluster(8, true)
	for _, scheme := range []sched.Scheme{sched.NewDFSS(), sched.AWFScheme{}, sched.FSSScheme{}} {
		b.Run(scheme.Name(), func(b *testing.B) {
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, scheme, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(rep.CompImbalance(), "imbalance")
		})
	}
}

// BenchmarkAblationReplan measures the step-2(c) majority re-plan
// under an early load spike on a majority of the slaves. Finding:
// DTSS is nearly re-plan-insensitive — its per-request A_i scaling
// already adapts every chunk — whereas the stage-structured DFISS,
// whose stage totals are fixed at plan time, visibly benefits.
func BenchmarkAblationReplan(b *testing.B) {
	cfg := experiments.Default()
	cfg.Width = 1000
	w := cfg.Workload()
	c := experiments.Cluster(8, false)
	for _, idx := range []int{0, 1, 4, 5, 6} {
		c.Machines[idx].Load = sim.LoadScript{{Start: 1, End: math.Inf(1), Extra: 2}}
	}
	for _, scheme := range []sched.Scheme{sched.DTSSScheme{}, sched.NewDFISS(0)} {
		for _, variant := range []struct {
			name    string
			disable bool
		}{{"replan", false}, {"no-replan", true}} {
			b.Run(scheme.Name()+"/"+variant.name, func(b *testing.B) {
				p := cfg.SimParams()
				p.DisableReplan = variant.disable
				var rep metrics.Report
				var err error
				for i := 0; i < b.N; i++ {
					rep, err = sim.Run(c, scheme, w, p)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(rep.Tp, "Tp_s")
				b.ReportMetric(float64(rep.Replans), "replans")
			})
		}
	}
}

// BenchmarkAblationPiggyback compares §5's piggy-backed results with
// the collect-at-end alternative the paper rejected. Paper-scale
// result payloads (4 KiB per column) and a 10 Mbit master NIC make
// the end-of-run contention visible at the Small problem size.
func BenchmarkAblationPiggyback(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	c := experiments.Cluster(8, false)
	c.MasterBandwidth = sim.Mbit10
	for _, variant := range []struct {
		name    string
		collect bool
	}{{"piggyback", false}, {"collect-at-end", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := cfg.SimParams()
			p.BytesPerIter = 4096
			p.CollectAtEnd = variant.collect
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				// DTSS finishes the slaves near-simultaneously, so the
				// end-of-run dumps collide — the contention §5 observed.
				rep, err = sim.Run(c, sched.DTSSScheme{}, w, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(rep.MeanWait(), "meanWait_s")
		})
	}
}

// BenchmarkAblationTSSL sweeps TSS's final chunk size L (the paper
// notes L > 1 reduces synchronisations).
func BenchmarkAblationTSSL(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	c := experiments.Cluster(8, false)
	for _, l := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, sched.TSSScheme{Last: l}, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(float64(rep.Chunks), "chunks")
		})
	}
}

// BenchmarkAblationSharedBus compares independent slave links against
// the era-accurate shared half-duplex medium (hub Ethernet).
func BenchmarkAblationSharedBus(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	c := experiments.Cluster(8, false)
	for _, variant := range []struct {
		name string
		bus  bool
	}{{"switched", false}, {"shared-bus", true}} {
		b.Run(variant.name, func(b *testing.B) {
			p := cfg.SimParams()
			p.SharedBus = variant.bus
			var rep metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				rep, err = sim.Run(c, sched.DTSSScheme{}, w, p)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(rep.Tp, "Tp_s")
			b.ReportMetric(rep.MeanWait(), "meanWait_s")
		})
	}
}

// BenchmarkAblationPowerRatio sweeps the fast:slow power ratio and
// reports how much DTSS buys over TSS at each heterogeneity level —
// at ratio 1 the distributed machinery is pure overhead; the gap
// should widen with the ratio.
func BenchmarkAblationPowerRatio(b *testing.B) {
	cfg := experiments.Small()
	w := cfg.Workload()
	for _, ratio := range []float64{1, 2, 3, 6} {
		b.Run(fmt.Sprintf("ratio=%g", ratio), func(b *testing.B) {
			c := experiments.Cluster(8, false)
			for i := range c.Machines {
				if c.Machines[i].Power > 1 {
					c.Machines[i].Power = ratio
				}
			}
			var tss, dtss metrics.Report
			var err error
			for i := 0; i < b.N; i++ {
				tss, err = sim.Run(c, sched.TSSScheme{}, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
				dtss, err = sim.Run(c, sched.DTSSScheme{}, w, cfg.SimParams())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(tss.Tp, "TSS_Tp_s")
			b.ReportMetric(dtss.Tp, "DTSS_Tp_s")
			b.ReportMetric(tss.Tp/dtss.Tp, "gain")
		})
	}
}

// ---- Micro-benchmarks ----

// BenchmarkPolicyNext measures raw chunk-computation throughput.
func BenchmarkPolicyNext(b *testing.B) {
	for _, name := range []string{"SS", "GSS", "TSS", "FSS", "FISS", "TFSS", "DTSS", "DFSS", "DTFSS"} {
		s, err := sched.Lookup(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			cfg := sched.Config{Iterations: 1 << 30, Workers: 8}
			pol, err := s.NewPolicy(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := pol.Next(sched.Request{Worker: i & 7, ACP: 1}); !ok {
					pol, _ = s.NewPolicy(cfg)
				}
			}
		})
	}
}

// BenchmarkSimulator measures discrete-event throughput.
func BenchmarkSimulator(b *testing.B) {
	c := experiments.Cluster(8, true)
	w := workload.Uniform{N: 5000}
	p := sim.Params{BaseRate: 1e5, BytesPerIter: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(c, sched.DTSSScheme{}, w, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTreeSimulator measures the Tree Scheduling event loop.
func BenchmarkTreeSimulator(b *testing.B) {
	c := experiments.Cluster(8, true)
	w := workload.Uniform{N: 5000}
	p := sim.Params{BaseRate: 1e5, BytesPerIter: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tree.Run(c, tree.Options{Weighted: true}, w, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRPCRoundTrip measures one NextChunk call through the real
// net/rpc stack over loopback TCP.
func BenchmarkRPCRoundTrip(b *testing.B) {
	// 1M single-iteration chunks outlast any realistic benchtime
	// without allocating a gigantic result table.
	m, err := loopsched.NewMaster(loopsched.NewSS(), 1_000_000, 1)
	if err != nil {
		b.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	if err := m.Serve(l); err != nil {
		b.Fatal(err)
	}
	client, err := rpc.Dial("tcp", l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply loopsched.ChunkReply
		if err := client.Call("Master.NextChunk", loopsched.ChunkArgs{Worker: 0}, &reply); err != nil {
			b.Fatal(err)
		}
		if reply.Stop {
			b.Fatal("exhausted")
		}
	}
}

// BenchmarkRPCPipeline runs a full 512-chunk master/worker loop over
// loopback TCP across the codec matrix: the original net/rpc+gob
// protocol (serial and double-buffered) against the binary wire codec
// at credit windows 1, 2 and 8. The kernel is near-free and the
// payload small, so the numbers isolate protocol overhead — encoding,
// allocation, and round-trip count — which is exactly what the binary
// codec and the batched-grant window exist to shrink. One benchmark op
// is one complete run (512 chunks), so ns/op and allocs/op compare
// whole-loop protocol cost between variants; `make bench-json`
// publishes the table as BENCH_wire.json.
func BenchmarkRPCPipeline(b *testing.B) {
	const n = 512
	kernel := func(i int) []byte {
		buf := make([]byte, 1024)
		binary.LittleEndian.PutUint64(buf, uint64(i)+1)
		return buf
	}
	for _, variant := range []struct {
		name      string
		transport loopsched.RPCTransport
		pipeline  bool
		window    int
	}{
		{"gob-serial", "netrpc", false, 0},
		{"gob-pipelined", "netrpc", true, 0},
		{"binary-w1", "binary", true, 1},
		{"binary-w2", "binary", true, 2},
		{"binary-w8", "binary", true, 8},
	} {
		b.Run(variant.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m, err := loopsched.NewMaster(loopsched.NewSS(), n, 1)
				if err != nil {
					b.Fatal(err)
				}
				m.SetWindow(variant.window)
				l, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				if err := m.Serve(l); err != nil {
					b.Fatal(err)
				}
				w := loopsched.Worker{
					ID: 0, Kernel: kernel,
					Pipeline:  variant.pipeline,
					Transport: variant.transport,
					Window:    variant.window,
				}
				if err := w.Run(l.Addr().String()); err != nil {
					b.Fatal(err)
				}
				if _, _, err := m.Wait(); err != nil {
					b.Fatal(err)
				}
				l.Close()
			}
			b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
		})
	}
}

// BenchmarkMPRoundTrip measures one request/assign exchange through
// the in-process message-passing world.
func BenchmarkMPRoundTrip(b *testing.B) {
	world, err := mp.NewWorld(2)
	if err != nil {
		b.Fatal(err)
	}
	// Minimal master loop: answer every request with a fixed frame.
	go func() {
		for {
			if _, err := world[0].Recv(mp.AnySource, mp.AnyTag); err != nil {
				return
			}
			if err := world[0].Send(1, 2, []byte{0, 0, 0, 0, 0, 0, 0, 1}); err != nil {
				return
			}
		}
	}()
	defer world[0].Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := world[1].Send(0, 1, []byte{0, 0, 0, 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := world[1].Recv(0, mp.AnyTag); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMandelbrotColumn measures the workload kernel.
func BenchmarkMandelbrotColumn(b *testing.B) {
	p := mandelbrot.Params{Region: mandelbrot.PaperRegion, Width: 4000, Height: 2000, MaxIter: 160}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mandelbrot.ColumnWork(p, i%p.Width)
	}
}

// BenchmarkLocalEngine races the two local runtimes — the channel
// master and the work-stealing deques — at growing worker counts on a
// fixed-chunk scheme with an empty body, so the numbers are pure
// scheduling overhead. The channel master serialises every grant
// through one goroutine; the steal engine amortises the policy lock
// over credit-window-sized refills and otherwise runs lock-free, so
// the gap should widen with p. One benchmark op is one complete run
// (n/K chunks); `make bench-json` publishes the table as
// BENCH_local.json.
func BenchmarkLocalEngine(b *testing.B) {
	const (
		n = 1 << 17 // iterations per run
		k = 4       // CSS chunk size: 32768 chunks per run
	)
	for _, engine := range []string{loopsched.EngineChannel, loopsched.EngineSteal} {
		for _, p := range []int{8, 32, 128} {
			b.Run(fmt.Sprintf("%s-p%d", engine, p), func(b *testing.B) {
				workers := make([]*loopsched.WorkerSpec, p)
				for i := range workers {
					workers[i] = &loopsched.WorkerSpec{WorkScale: 1}
				}
				ex := &loopsched.LocalExecutor{
					Scheme:  loopsched.NewCSS(k),
					Workers: workers,
					Engine:  engine,
				}
				w := loopsched.Uniform{N: n}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					rep, err := ex.Run(w, func(int) {})
					if err != nil {
						b.Fatal(err)
					}
					if rep.Iterations != n {
						b.Fatalf("ran %d of %d iterations", rep.Iterations, n)
					}
				}
				b.ReportMetric(float64(n/k)*float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
			})
		}
	}
}

// BenchmarkLocalExecutor measures the goroutine master–worker loop on
// a trivial body (scheduling overhead dominated).
func BenchmarkLocalExecutor(b *testing.B) {
	ex := &loopsched.LocalExecutor{
		Scheme: loopsched.NewTFSS(),
		Workers: []*loopsched.WorkerSpec{
			{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 1}, {WorkScale: 1},
		},
	}
	w := loopsched.Uniform{N: 10000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var sink int64
		if _, err := ex.Run(w, func(it int) { sink += int64(it) }); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScheduler measures the multi-tenant scheduler daemon as a
// job-stream pipeline: one long-lived fleet, batches of concurrent
// jobs from several tenants, trivial bodies so admission, arbitration
// and refill dominate. Headline metrics are jobs/s and chunks/s
// (published to BENCH_service.json by make bench-json).
func BenchmarkScheduler(b *testing.B) {
	const (
		batch = 32      // concurrent jobs per iteration
		n     = 1 << 12 // iterations per job
		k     = 8       // CSS chunk size: n/k chunks per job
	)
	ctx := context.Background()
	for _, cfg := range []struct {
		name       string
		p, tenants int
	}{
		{"p8-t1", 8, 1},
		{"p8-t4", 8, 4},
		{"p32-t8", 32, 8},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			workers := make([]*loopsched.WorkerSpec, cfg.p)
			for i := range workers {
				workers[i] = &loopsched.WorkerSpec{WorkScale: 1}
			}
			s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
				Workers:      workers,
				CreditWindow: 8,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			var chunks int64
			for i := 0; i < b.N; i++ {
				jobs := make([]*loopsched.Job, batch)
				for j := range jobs {
					jobs[j], err = s.Submit(ctx, loopsched.JobSpec{
						Scheme:   loopsched.NewCSS(k),
						Workload: loopsched.Uniform{N: n},
						Body:     func(int) {},
						Tenant:   fmt.Sprintf("tenant-%d", j%cfg.tenants),
						Weight:   float64(1 + j%3),
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				for _, j := range jobs {
					if _, err := j.Wait(ctx); err != nil {
						b.Fatal(err)
					}
					chunks += int64(j.ChunksGranted())
				}
			}
			elapsed := b.Elapsed().Seconds()
			b.ReportMetric(float64(batch)*float64(b.N)/elapsed, "jobs/s")
			b.ReportMetric(float64(chunks)/elapsed, "chunks/s")
		})
	}
}

// BenchmarkLedger measures the scheduling-step ledger at both layers;
// `make bench-json` publishes the table as BENCH_ledger.json.
//
// The simulated matrix hammers the in-process half — one fetch-and-add
// on the shared step counter plus a table lookup — from p concurrent
// claimers, which is the whole per-chunk acquire cost the steal engine
// and the master's ledger branch pay. The loopback matrix runs full
// master/worker loops over TCP with the ledger off (the PR 5
// credit-window grant path: every chunk is requested and granted in a
// master frame) and on (workers claim with one-sided FetchAdd frames
// and self-compute boundaries from a table replica), so chunks/s
// compares what the protocol costs per chunk end to end.
func BenchmarkLedger(b *testing.B) {
	b.Run("simulated", func(b *testing.B) {
		tab, err := ledger.Build(sched.TSSScheme{}, sched.Config{Iterations: 1 << 20, Workers: 64})
		if err != nil {
			b.Fatal(err)
		}
		steps := uint64(tab.Steps())
		for _, p := range []int{128, 1024, 8192} {
			b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
				var ctr ledger.Local
				b.ReportAllocs()
				b.ResetTimer()
				var wg sync.WaitGroup
				for g := 0; g < p; g++ {
					claims := b.N / p
					if g < b.N%p {
						claims++
					}
					if claims == 0 {
						continue
					}
					wg.Add(1)
					go func(claims int) {
						defer wg.Done()
						for j := 0; j < claims; j++ {
							step, _ := ctr.FetchAdd(1)
							// Claim-then-check: wrap so the table never
							// drains while the benchmark runs.
							if _, ok := tab.Chunk(step % steps); !ok {
								panic("table lookup failed")
							}
						}
					}(claims)
				}
				wg.Wait()
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "chunks/s")
			})
		}
	})

	b.Run("loopback", func(b *testing.B) {
		const n = 2048 // SS: one iteration per chunk, 2048 protocol acquisitions per op
		kernel := func(i int) []byte {
			buf := make([]byte, 1024)
			binary.LittleEndian.PutUint64(buf, uint64(i)+1)
			return buf
		}
		for _, p := range []int{2, 8, 32} {
			for _, mode := range []string{"master", "ledger"} {
				b.Run(fmt.Sprintf("%s-p%d", mode, p), func(b *testing.B) {
					b.ReportAllocs()
					chunks := 0
					for i := 0; i < b.N; i++ {
						m, err := loopsched.NewMaster(loopsched.NewSS(), n, p)
						if err != nil {
							b.Fatal(err)
						}
						if mode == "ledger" {
							if err := m.SetLedger("on"); err != nil {
								b.Fatal(err)
							}
							if !m.LedgerActive() {
								b.Fatal("ledger did not arm")
							}
						}
						l, err := net.Listen("tcp", "127.0.0.1:0")
						if err != nil {
							b.Fatal(err)
						}
						if err := m.Serve(l); err != nil {
							b.Fatal(err)
						}
						var wg sync.WaitGroup
						errs := make([]error, p)
						for id := 0; id < p; id++ {
							// Both sides run at the default credit window of 1
							// (the PR 5 double buffer): the master path
							// pipelines one prefetched grant per round trip,
							// the ledger path claims up to ledgerClaimFactor steps.
							w := loopsched.Worker{
								ID: id, Kernel: kernel,
								Transport:   "binary",
								Pipeline:    mode == "master",
								LedgerTable: m.Ledger(), // nil in master mode
							}
							wg.Add(1)
							go func(id int, w loopsched.Worker) {
								defer wg.Done()
								errs[id] = w.Run(l.Addr().String())
							}(id, w)
						}
						wg.Wait()
						for id, err := range errs {
							if err != nil {
								b.Fatalf("worker %d: %v", id, err)
							}
						}
						if _, rep, err := m.Wait(); err != nil {
							b.Fatal(err)
						} else {
							chunks += rep.Chunks
						}
						l.Close()
					}
					b.ReportMetric(float64(chunks)/b.Elapsed().Seconds(), "chunks/s")
				})
			}
		}
	})
}
