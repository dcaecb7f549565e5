// Benchmarks regenerating every table and figure of the paper, plus
// ablations of the design choices documented in DESIGN.md §6 and the
// simulators' event-loop throughput. The real runtimes' end-to-end and
// per-layer numbers are the repository benchmark's (BENCHMARK.json,
// benchmark/README.md), not this file's.
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
	"fmt"
	"math"
	"sync"
	"testing"

	"loopsched"
	"loopsched/internal/acp"
	"loopsched/internal/experiments"
	"loopsched/internal/mandelbrot"
	"loopsched/internal/metrics"
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

// ---- Simulator throughput ----

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

// ---- Runtime overhead ----

// BenchmarkRunLocalFine is the loop make profile-fine profiles: one Run
// on the local backend per op, CSS(4) over 65 536 empty iterations on
// two equal workers, pipelined — the benchmark's fine_css cell, where
// scheduling and timing overhead is nearly all of the run.
func BenchmarkRunLocalFine(b *testing.B) { runLocalFine(b, fineSpec()) }

// BenchmarkRunLocalFineTraced is BenchmarkRunLocalFine with a telemetry
// session (bus, aggregator and flight recorder) attached for the whole
// benchmark: beside the untraced figure, what telemetry costs the fine
// loop. dropped/op is the events the bus's ring had no room for.
func BenchmarkRunLocalFineTraced(b *testing.B) {
	tel, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer tel.Close()
	spec := fineSpec()
	spec.Telemetry = tel
	runLocalFine(b, spec)
	b.ReportMetric(float64(tel.Bus().Dropped())/float64(b.N), "dropped/op")
}

// fineSpec is the fine loop the two local benchmarks run: CSS(4) over
// 65 536 empty iterations on two equal workers, pipelined.
func fineSpec() loopsched.RunSpec {
	return loopsched.RunSpec{
		Scheme:   loopsched.NewCSS(4),
		Workload: loopsched.Uniform{N: 1 << 16},
		Backend:  loopsched.BackendLocal,
		Workers:  []*loopsched.WorkerSpec{{}, {}},
		Kernel:   func(int) []byte { return nil },
		Pipeline: true,
	}
}

func runLocalFine(b *testing.B, spec loopsched.RunSpec) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := loopsched.Run(context.Background(), spec)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Iterations != 1<<16 {
			b.Fatalf("%d of %d iterations", rep.Iterations, 1<<16)
		}
	}
}

// BenchmarkServiceFine is BenchmarkRunLocalFine on the scheduler service:
// one CSS(4) job of 65 536 empty iterations per op, submitted to a warm
// fleet of two equal workers and waited for — the benchmark's fine_css
// service cell, whose per-batch request path make profile-fine profiles
// beside the local backend's.
func BenchmarkServiceFine(b *testing.B) {
	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{Workers: []*loopsched.WorkerSpec{{}, {}}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	spec := loopsched.JobSpec{
		Scheme:   loopsched.NewCSS(4),
		Workload: loopsched.Uniform{N: 1 << 16},
		Body:     func(int) {},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j, err := s.Submit(ctx, spec)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := j.Wait(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Iterations != 1<<16 {
			b.Fatalf("%d of %d iterations", rep.Iterations, 1<<16)
		}
	}
}
