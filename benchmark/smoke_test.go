package main

import (
	"context"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// tinyConfig runs every workload at smoke-test size: one set-up, one
// round, three traced repetitions. No timing is asserted.
func tinyConfig(t *testing.T) config {
	dialled.unlimited = true
	return config{p: 2, seed: 1, minRounds: 1, setups: 1, trace: true, tiny: true, traceDir: t.TempDir()}
}

// TestWorkloadsVerifyOnEveryPath drives every workload through all
// eight runtime paths, untraced and traced, and requires every run to
// pass output verification and every emitted metric name to be one
// BENCHMARK.json lists.
func TestWorkloadsVerifyOnEveryPath(t *testing.T) {
	sp, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.EndToEnd) > 16 || len(sp.PerLayer) > 128 {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics; the limits are 16 and 128", len(sp.EndToEnd), len(sp.PerLayer))
	}
	listed := func(ms []specMetric) []string {
		names := make([]string, len(ms))
		for i, m := range ms {
			names[i] = m.Name
		}
		sort.Strings(names)
		return names
	}
	wantE2E, wantLayer := listed(sp.EndToEnd), listed(sp.PerLayer)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}

	ctx := context.Background()
	cfg := tinyConfig(t)
	// The probes are timing loops; the smoke test only needs their
	// names, so it hands the workloads zero-valued stand-ins.
	probes := make(map[string]metric)
	for _, name := range probeNames {
		probes[name] = metric{Unit: "ns"}
	}
	for _, r := range runtimes {
		probes["run_fixed_ms."+r.name] = metric{Unit: "ms"}
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d is %q, the harness has %q", i, sp.Workloads[i].Name, w.name)
		}
		res, err := measureWorkload(ctx, w, cfg, header{}, probes)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if res.OpsFailed != 0 || res.OpsAttempted < 3*len(runtimes) {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, res.OpsFailed, res.OpsAttempted, res.Failures)
		}
		emitted := func(m map[string]metric) []string {
			names := make([]string, 0, len(m))
			for name, v := range m {
				if !nameRE.MatchString(name) || !nameRE.MatchString(strings.ReplaceAll(v.Unit, "/", "_")) {
					t.Errorf("%s: metric %q with unit %q is not a plain name", w.name, name, v.Unit)
				}
				names = append(names, name)
			}
			sort.Strings(names)
			return names
		}
		if got := emitted(res.EndToEnd); strings.Join(got, " ") != strings.Join(wantE2E, " ") {
			t.Errorf("%s: end-to-end metrics\n got %v\nwant %v", w.name, got, wantE2E)
		}
		if got := emitted(res.PerLayer); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
			t.Errorf("%s: per-layer metrics\n got %v\nwant %v", w.name, got, wantLayer)
		}
	}
	gotE2E := endToEndNames()
	sort.Strings(gotE2E)
	if strings.Join(gotE2E, " ") != strings.Join(wantE2E, " ") {
		t.Errorf("endToEndNames() = %v, BENCHMARK.json lists %v", gotE2E, wantE2E)
	}
	if got := perLayerNames(); strings.Join(got, " ") != strings.Join(wantLayer, " ") {
		t.Errorf("perLayerNames() = %v, BENCHMARK.json lists %v", got, wantLayer)
	}
}

// TestVerifierCatchesBadRuns corrupts a finished run two ways — an
// iteration that never executed and a wrong result checksum — and
// requires the verifier to reject both.
func TestVerifierCatchesBadRuns(t *testing.T) {
	ctx := context.Background()
	w, _ := findWorkload("mandel_homog_tfss")
	in, err := setUp(ctx, w, tinyConfig(t), &workloadResult{})
	if err != nil {
		t.Fatal(err)
	}
	defer in.close()
	run := func() runResult {
		rr, _ := in.rep(ctx, runtimes[0])
		if err := rr.check(in.fleet, in.loops); err != nil {
			t.Fatalf("clean run rejected: %v", err)
		}
		return rr
	}
	l := in.loops[0]

	rr := run()
	l.counts[l.n/2] = 0
	if err := rr.check(in.fleet, in.loops); err == nil || !strings.Contains(err.Error(), "executed 0 times") {
		t.Errorf("skipped iteration not caught: %v", err)
	}
	rr = run()
	l.counts[3] = 2
	if err := rr.check(in.fleet, in.loops); err == nil || !strings.Contains(err.Error(), "executed 2 times") {
		t.Errorf("iteration executed twice not caught: %v", err)
	}
	rr = run()
	l.sums[7] ^= 1
	if err := rr.check(in.fleet, in.loops); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("corrupted checksum not caught: %v", err)
	}
	rr = run()
	rr.reports[0].Iterations--
	if err := rr.check(in.fleet, in.loops); err == nil || !strings.Contains(err.Error(), "Report.Iterations") {
		t.Errorf("short report not caught: %v", err)
	}
}

// TestFastMean pins the headline statistic: the mean of the fastest
// share of the samples, rounded up to a whole sample and never none.
func TestFastMean(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7, 2, 8, 4, 6, 10, 11}
	for _, c := range []struct{ share, want float64 }{{1, 6}, {0.5, 3.5}, {0.1, 1.5}, {0, 1}} {
		if got := fastMean(xs, c.share); got != c.want {
			t.Errorf("fastMean(1..11, %v) = %v, want %v", c.share, got, c.want)
		}
	}
	if got := fastMean(nil, 0.5); got != 0 {
		t.Errorf("fastMean of no samples = %v, want 0", got)
	}
}
