// Command loopsched runs one self-scheduling scheme on one workload,
// either on the simulated heterogeneous cluster or with real goroutine
// workers, and prints the paper-style report. With -serve it instead
// runs the multi-tenant scheduler daemon over a JSON job script: one
// shared fleet serving a stream of jobs under admission quotas and
// weighted-fair arbitration (see docs/SERVICE.md).
//
// Examples:
//
//	loopsched -scheme DTSS -workload mandelbrot -p 8 -nondedicated
//	loopsched -scheme TSS -workload uniform -I 10000 -p 4
//	loopsched -scheme TFSS -workload mandelbrot -real -p 4
//	loopsched -serve configs/jobstream.json
//	loopsched -list
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"loopsched"
)

func main() {
	var (
		schemeName   = flag.String("scheme", "DTSS", "scheduling scheme (see -list)")
		workloadName = flag.String("workload", "mandelbrot", "workload: mandelbrot, uniform, linear-inc, linear-dec, conditional, random, or csv:<path>")
		iterations   = flag.Int("I", 0, "iteration count for synthetic workloads (default 4000)")
		p            = flag.Int("p", 8, "number of slave PEs")
		nondedicated = flag.Bool("nondedicated", false, "overload some PEs with background processes")
		clusterFile  = flag.String("cluster", "", "JSON cluster description (overrides -p/-nondedicated)")
		width        = flag.Int("width", 4000, "mandelbrot window width (columns)")
		height       = flag.Int("height", 2000, "mandelbrot window height (rows)")
		maxIter      = flag.Int("maxiter", 160, "mandelbrot escape-time bound")
		sf           = flag.Int("sf", 4, "sampling reorder frequency (1 = no reorder)")
		real         = flag.Bool("real", false, "execute with real goroutine workers instead of the simulator")
		rpcReal      = flag.Bool("rpc", false, "execute with real RPC slaves self-hosted on loopback (overrides -real)")
		transport    = flag.String("transport", "", "rpc wire format: binary or netrpc (default: $LOOPSCHED_TRANSPORT, else binary)")
		tree         = flag.Bool("tree", false, "use Tree Scheduling (ignores -scheme)")
		gantt        = flag.Bool("gantt", false, "print an ASCII Gantt chart of the simulated run")
		traceCSV     = flag.String("trace-csv", "", "write the chunk-level execution trace to this CSV file")
		ganttSVG     = flag.String("gantt-svg", "", "write the Gantt chart as SVG to this file")
		bus          = flag.Bool("bus", false, "simulate a shared half-duplex medium (hub Ethernet) instead of independent links")
		acpScale     = flag.Int("acp-scale", 0, "ACP decimal scale factor (0 = default 10; 1 = the original integer DTSS)")
		shards       = flag.Int("shards", 0, "run the two-level hierarchy with this many submaster shards (0 = flat)")
		debugAddr    = flag.String("debug-addr", "", "serve live run telemetry on this address for the duration of the run (Prometheus /metrics, expvar /debug/vars, net/http/pprof /debug/pprof/)")
		perfetto     = flag.String("perfetto", "", "write a Perfetto-loadable Chrome trace-event JSON of the run to this file")
		serveScript  = flag.String("serve", "", "run the multi-tenant scheduler daemon over this JSON job script (shared fleet, admission quotas, weighted fairness) and print per-job and per-tenant summaries")
		list         = flag.Bool("list", false, "list available schemes and exit")
		describe     = flag.String("describe", "", "describe schemes ('all', a category, or a name) and exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("available schemes:", strings.Join(loopsched.SchemeNames(), " "))
		fmt.Println("plus: TreeS (via -tree)")
		return
	}
	if *describe != "" {
		filter := *describe
		if filter == "all" {
			filter = ""
		}
		fmt.Print(loopsched.DescribeSchemes(filter))
		return
	}

	// A telemetry session observes the run live: the debug endpoint
	// stays up while the loop executes, and the Perfetto document is
	// finished when the session closes below.
	var err error
	var tele *loopsched.Telemetry
	var perfettoFile *os.File
	if *debugAddr != "" || *perfetto != "" {
		opts := loopsched.TelemetryOptions{DebugAddr: *debugAddr}
		if *perfetto != "" {
			perfettoFile, err = os.Create(*perfetto)
			if err != nil {
				fail(err)
			}
			opts.Perfetto = perfettoFile
		}
		tele, err = loopsched.NewTelemetry(opts)
		if err != nil {
			fail(err)
		}
		if addr := tele.DebugAddr(); addr != "" {
			fmt.Printf("telemetry: http://%s/metrics (expvar /debug/vars, pprof /debug/pprof/)\n", addr)
		}
	}

	// The daemon mode: a stream of jobs on one shared fleet instead of
	// a single run.
	if *serveScript != "" {
		if err := serve(*serveScript, tele, *width, *height, *maxIter, *sf); err != nil {
			fail(err)
		}
		closeTelemetry(tele, perfettoFile, *perfetto)
		return
	}

	w, err := buildWorkload(*workloadName, *iterations, *width, *height, *maxIter, *sf)
	if err != nil {
		fail(err)
	}

	cluster := loopsched.PaperCluster(*p, *nondedicated)
	if *clusterFile != "" {
		f, err := os.Open(*clusterFile)
		if err != nil {
			fail(err)
		}
		cluster, err = loopsched.ReadCluster(f)
		f.Close()
		if err != nil {
			fail(err)
		}
	}
	params := loopsched.SimParams{BaseRate: 1.2e6, BytesPerIter: float64(2 * *height)}
	params.SharedBus = *bus
	if *acpScale > 0 {
		params.ACP = loopsched.ACPModel{Scale: *acpScale}
	}
	var tr *loopsched.Trace
	if *gantt || *traceCSV != "" || *ganttSVG != "" {
		tr = &loopsched.Trace{}
	}

	var rep loopsched.Report
	if *tree {
		// Tree Scheduling predates the unified executor; it runs on the
		// legacy simulator path without hierarchy or telemetry.
		params.Trace = tr
		rep, err = loopsched.SimulateTree(cluster, loopsched.TreeOptions{Weighted: true}, w, params)
	} else {
		var s loopsched.Scheme
		s, err = loopsched.LookupScheme(*schemeName)
		if err == nil {
			spec := loopsched.RunSpec{Scheme: s, Workload: w, Telemetry: tele, Trace: tr}
			if *shards > 0 {
				spec.Hierarchy = &loopsched.Hierarchy{Shards: *shards}
			}
			if *rpcReal {
				spec.Backend = loopsched.BackendRPC
				spec.Workers = realWorkers(*p)
				spec.Body = burnBody(w)
				spec.Pipeline = true
				spec.Transport = *transport
			} else if *real {
				spec.Backend = loopsched.BackendLocal
				spec.Workers = realWorkers(*p)
				spec.Body = burnBody(w)
			} else {
				spec.Backend = loopsched.BackendSim
				spec.Cluster = cluster
				spec.Sim = params
			}
			rep, err = loopsched.Run(context.Background(), spec)
		}
	}
	if err != nil {
		fail(err)
	}
	printReport(rep)
	if s := loopsched.FormatShards(rep); s != "" {
		fmt.Print(s)
	}
	if tr != nil && *gantt {
		fmt.Print(tr.Gantt(100))
		fmt.Printf("mean utilization: %.0f%%\n", 100*tr.MeanUtilization())
	}
	if tr != nil && *ganttSVG != "" {
		if err := os.WriteFile(*ganttSVG, []byte(loopsched.GanttSVG(tr)), 0o644); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *ganttSVG)
	}
	if tr != nil && *traceCSV != "" {
		f, err := os.Create(*traceCSV)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := tr.WriteCSV(f); err != nil {
			fail(err)
		}
		fmt.Println("wrote", *traceCSV)
	}
	closeTelemetry(tele, perfettoFile, *perfetto)
}

// closeTelemetry finishes the telemetry session, completing the
// Perfetto document if one was requested.
func closeTelemetry(tele *loopsched.Telemetry, perfettoFile *os.File, perfettoPath string) {
	if tele == nil {
		return
	}
	if err := tele.Close(); err != nil {
		fail(err)
	}
	if perfettoFile != nil {
		if err := perfettoFile.Close(); err != nil {
			fail(err)
		}
		fmt.Println("wrote", perfettoPath, "(open at https://ui.perfetto.dev)")
	}
}

func buildWorkload(name string, iterations, width, height, maxIter, sf int) (loopsched.Workload, error) {
	if iterations <= 0 {
		iterations = 4000
	}
	var w loopsched.Workload
	switch name {
	case "mandelbrot":
		w = loopsched.MandelbrotWorkload(loopsched.MandelbrotParams{
			Region: loopsched.PaperRegion, Width: width, Height: height, MaxIter: maxIter,
		})
	case "uniform":
		w = loopsched.Uniform{N: iterations}
	case "linear-inc":
		w = loopsched.LinearIncreasing{N: iterations}
	case "linear-dec":
		w = loopsched.LinearDecreasing{N: iterations}
	case "conditional":
		w = loopsched.NewConditional(iterations, 0.25, 10, 1, 1)
	case "random":
		w = loopsched.NewRandom(iterations, 8, 1, 1)
	default:
		if path, ok := strings.CutPrefix(name, "csv:"); ok {
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			loaded, err := loopsched.ReadCosts(f, path)
			if err != nil {
				return nil, err
			}
			w = loaded
			break
		}
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if sf > 1 {
		w = loopsched.Reorder(w, sf)
	}
	return w, nil
}

// realWorkers builds the -real worker set with the same fast/slow mix
// as the paper cluster.
func realWorkers(p int) []*loopsched.WorkerSpec {
	workers := make([]*loopsched.WorkerSpec, p)
	for i := range workers {
		scale := 1
		if i >= (3*p+7)/8 {
			scale = 3
		}
		workers[i] = &loopsched.WorkerSpec{WorkScale: scale}
	}
	return workers
}

// burnBody returns a loop body that burns work proportional to the
// iteration's cost.
func burnBody(w loopsched.Workload) func(i int) {
	var sink int64
	return func(i int) {
		n := int(w.Cost(i))
		for k := 0; k < n; k++ {
			sink += int64(k ^ i)
		}
	}
}

func printReport(rep loopsched.Report) {
	fmt.Print(loopsched.FormatTable(
		fmt.Sprintf("%s on %s (p=%d)", rep.Scheme, rep.Workload, rep.Workers),
		[]loopsched.Report{rep}))
	fmt.Printf("chunks=%d replans=%d comp-imbalance=%.3f\n",
		rep.Chunks, rep.Replans, rep.CompImbalance())
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "loopsched:", err)
	os.Exit(1)
}
