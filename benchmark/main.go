// Command benchmark is the repository's one named benchmark: the
// caller-seen parallel time T_p of every runtime path on five loops,
// with every run's output verified, plus — in a traced pass — layer
// probes and an overhead budget attributing the non-body time. See
// README.md in this directory and BENCHMARK.json at the repository
// root.
//
//	go run ./benchmark                      every workload, end-to-end metrics
//	go run ./benchmark -trace               plus probes, traced pass, layer metrics
//	go run ./benchmark -compare old.json new.json
//	go run ./benchmark -selfcheck
//	go run ./benchmark --workload W --seed N --seconds S --trace 0|1   (driver contract)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// header identifies the machine and build a result was measured on.
type header struct {
	P         int    `json:"p"` // workers = GOMAXPROCS
	NumCPU    int    `json:"num_cpu"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	CPU       string `json:"cpu"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Seed      int64  `json:"seed"`
}

// suiteResult is what -out writes and -compare reads.
type suiteResult struct {
	Header    header            `json:"header"`
	Workloads []*workloadResult `json:"workloads"`
}

func newHeader(seed int64) header {
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	h := header{
		P: p, NumCPU: runtime.NumCPU(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPU: "unknown", GoVersion: runtime.Version(), Commit: "unknown", Seed: seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

// normalizeTrace lets the boolean -trace flag also take the driver's
// separate value: "--trace 1" becomes "-trace=1".
func normalizeTrace(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, a)
	}
	return out
}

func main() {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	var (
		workloadName = fs.String("workload", "", "run only this workload (default: all five)")
		seed         = fs.Int64("seed", 1, "workload seed")
		repsS        = fs.Float64("reps-s", 3, "measuring seconds per cell (8 cells per workload)")
		seconds      = fs.Float64("seconds", 0, "measuring seconds per workload; overrides -reps-s and ends the output with the driver's one-line JSON result")
		trace        = fs.Bool("trace", false, "also run the layer probes and the traced pass, and write benchmark/out/trace-<workload>.json")
		outPath      = fs.String("out", "", "write the full result as JSON to this file")
		traceDir     = fs.String("trace-dir", "benchmark/out", "directory the traced pass writes to")
		compare      = fs.Bool("compare", false, "compare two -out files: -compare old.json new.json")
		selfcheck    = fs.Bool("selfcheck", false, "run the untraced suite twice and fail unless every end-to-end metric agrees within its bound")
	)
	_ = fs.Parse(normalizeTrace(os.Args[1:])) // ExitOnError

	if *compare {
		if fs.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: old.json new.json"))
		}
		os.Exit(compareFiles(fs.Arg(0), fs.Arg(1)))
	}
	if fs.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %v", fs.Args()))
	}
	// The spec pins every knob; an environment override would silently
	// move runs onto another path.
	for _, env := range []string{"LOOPSCHED_TRANSPORT", "LOOPSCHED_LEDGER"} {
		if os.Getenv(env) != "" {
			fatal(fmt.Errorf("%s is set; the benchmark pins transport and ledger itself, unset it", env))
		}
	}

	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		selected = []workload{w}
	}
	head := newHeader(*seed)
	runtime.GOMAXPROCS(head.P)
	cfg := config{
		p: head.P, seed: *seed, seconds: *repsS * float64(len(runtimes)), minRounds: 12, setups: 5,
		trace: *trace, traceSeconds: *repsS * float64(len(runtimes)) / 2, traceDir: *traceDir,
	}
	driver := *seconds > 0
	if driver {
		// One driver run measures for -seconds in all: a traced run
		// splits them between the two passes and sets up once, since it
		// does not report setup_s.
		cfg.seconds, cfg.minRounds = *seconds, 3
		if cfg.trace {
			cfg.seconds, cfg.traceSeconds, cfg.setups = *seconds/2, *seconds/2, 1
		}
	}
	printHeader(head)
	ctx := context.Background()

	if *selfcheck {
		os.Exit(selfCheck(ctx, selected, cfg, head))
	}
	suite, err := runSuite(ctx, selected, cfg, head)
	if err != nil {
		fatal(err)
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(suite, "", " ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	failed := 0
	for _, w := range suite.Workloads {
		failed += w.OpsFailed
	}
	if driver && len(suite.Workloads) == 1 {
		printDriverLine(suite.Workloads[0], cfg.trace)
	}
	if failed > 0 && !driver {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// runSuite measures the selected workloads one after another.
func runSuite(ctx context.Context, selected []workload, cfg config, head header) (*suiteResult, error) {
	var probes map[string]metric
	if cfg.trace {
		var err error
		if probes, err = probeSuite(ctx, cfg.p); err != nil {
			return nil, err
		}
	}
	suite := &suiteResult{Header: head}
	for _, w := range selected {
		res, err := measureWorkload(ctx, w, cfg, head, probes)
		if err != nil {
			return nil, err
		}
		printWorkload(res)
		suite.Workloads = append(suite.Workloads, res)
	}
	return suite, nil
}

func printHeader(h header) {
	fmt.Printf("# loopsched benchmark: P=%d (GOMAXPROCS) of %d cpus, %s/%s, %s, %s, commit %s, seed %d\n",
		h.P, h.NumCPU, h.GOOS, h.GOARCH, h.CPU, h.GoVersion, h.Commit, h.Seed)
}

// printWorkload prints every metric by name with its unit.
func printWorkload(r *workloadResult) {
	fmt.Printf("\n## %s  seed=%d  rounds=%d  ops_attempted=%d  ops_failed=%d\n", r.Name, r.Seed, r.Rounds, r.OpsAttempted, r.OpsFailed)
	for _, f := range r.Failures {
		fmt.Printf("FAILED %s\n", f)
	}
	fmt.Printf("%-44s %14s %-6s %12s %12s %12s %12s %5s\n", "end-to-end metric", "value", "unit", "median", "q1", "q3", "min", "n")
	for _, name := range endToEndNames() {
		m := r.EndToEnd[name]
		fmt.Printf("%-44s %14.6g %-6s %12.6g %12.6g %12.6g %12.6g %5d\n", name, m.Value, m.Unit, m.Median, m.Q1, m.Q3, m.Min, m.N)
	}
	if r.PerLayer == nil {
		return
	}
	fmt.Printf("%-44s %14s %-6s\n", "per-layer metric", "value", "unit")
	names := make([]string, 0, len(r.PerLayer))
	for name := range r.PerLayer {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.PerLayer[name]
		fmt.Printf("%-44s %14.6g %-6s\n", name, m.Value, m.Unit)
	}
}

// printDriverLine ends the output with the one JSON object the driver
// reads: the end-to-end metrics of an untraced run, the layer metrics
// of a traced one.
func printDriverLine(r *workloadResult, traced bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src, names := r.EndToEnd, endToEndNames()
	if traced {
		src, names = r.PerLayer, perLayerNames()
	}
	metrics := make(map[string]value, len(names))
	for _, name := range names {
		metrics[name] = value{src[name].Value, src[name].Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.OpsFailed == 0, r.OpsAttempted, r.OpsFailed, metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}
