package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// verdict judges one (end-to-end metric, workload) pair of results.
// Every end-to-end metric is lower-is-better, and bound is the share of
// the old value by which the new one may be worse.
func verdict(old, new metric, bound float64) string {
	if len(old.Samples) > 0 && len(new.Samples) > 0 {
		o, n := sorted(old.Samples), sorted(new.Samples)
		switch {
		case n[len(n)-1] < o[0]:
			return "better" // every new run reads better than every old one
		case resolution(old.Samples) > bound || resolution(new.Samples) > bound:
			return "unresolved"
		}
	}
	switch ratio := new.Value / old.Value; {
	case ratio > 1+bound:
		return "worse"
	case ratio < 1-bound:
		return "better"
	}
	return "same"
}

// resolution is how finely a cell's headline is known: about two
// standard errors of it, taken from the spread of its repetitions, as a
// share of the median. A pair of results whose resolution is coarser
// than the bound cannot show a regression of the bound's size.
func resolution(samples []float64) float64 {
	return 2 * spread(samples) / math.Sqrt(float64(len(samples)))
}

// compareSuites prints one row per (end-to-end metric, workload) and
// returns how many rows are worse — or, with symmetric set, differ by
// more than the bound in either direction — plus whether the share of
// failed operations rose.
func compareSuites(old, new *suiteResult, bounds map[string]float64, symmetric bool) (bad int) {
	fmt.Printf("%-20s %-20s %12s %24s %12s %24s %16s  %s\n",
		"workload", "metric", "old", "old [q1, q3]", "new", "new [q1, q3]", "new/old", "verdict")
	byName := make(map[string]*workloadResult, len(old.Workloads))
	for _, w := range old.Workloads {
		byName[w.Name] = w
	}
	for _, nw := range new.Workloads {
		ow, ok := byName[nw.Name]
		if !ok {
			continue
		}
		for _, name := range endToEndNames() {
			o, n := ow.EndToEnd[name], nw.EndToEnd[name]
			if o.Value == 0 {
				continue
			}
			v := verdict(o, n, bounds[name])
			if symmetric && v == "better" {
				v = "differs"
			}
			if v == "worse" || v == "differs" {
				bad++
			}
			fmt.Printf("%-20s %-20s %12.6g %24s %12.6g %24s %16s  %s\n", nw.Name, name,
				o.Value, fmt.Sprintf("[%.5g, %.5g]", o.Q1, o.Q3),
				n.Value, fmt.Sprintf("[%.5g, %.5g]", n.Q1, n.Q3),
				fmt.Sprintf("%.4f of %.4g", n.Value/o.Value, o.Value), v)
		}
		of := float64(ow.OpsFailed) / float64(ow.OpsAttempted)
		nf := float64(nw.OpsFailed) / float64(nw.OpsAttempted)
		fmt.Printf("%-20s %-20s %12s %24s %12s\n", nw.Name, "ops_failed/attempted",
			fmt.Sprintf("%d/%d", ow.OpsFailed, ow.OpsAttempted), "", fmt.Sprintf("%d/%d", nw.OpsFailed, nw.OpsAttempted))
		if nf > of {
			fmt.Printf("%s: the share of failed operations rose\n", nw.Name)
			bad++
		}
	}
	return bad
}

func readSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareFiles implements -compare and returns the exit code.
func compareFiles(oldPath, newPath string) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(fmt.Errorf("reading the bounds: %w", err))
	}
	old, err := readSuite(oldPath)
	if err != nil {
		fatal(err)
	}
	new, err := readSuite(newPath)
	if err != nil {
		fatal(err)
	}
	if bad := compareSuites(old, new, sp.bounds(), false); bad > 0 {
		fmt.Printf("%d regressions\n", bad)
		return 1
	}
	return 0
}

// selfCheck implements -selfcheck: the untraced suite twice, one full
// set after the other, and every end-to-end metric must agree within
// its bound.
func selfCheck(ctx context.Context, selected []workload, cfg config, head header) int {
	sp, err := loadSpec()
	if err != nil {
		fatal(fmt.Errorf("reading the bounds: %w", err))
	}
	cfg.trace = false
	var sets [2]*suiteResult
	for i := range sets {
		fmt.Printf("\n# selfcheck: set %d of 2\n", i+1)
		if sets[i], err = runSuite(ctx, selected, cfg, head); err != nil {
			fatal(err)
		}
	}
	fmt.Println()
	bad := compareSuites(sets[0], sets[1], sp.bounds(), true)
	for _, s := range sets {
		for _, w := range s.Workloads {
			bad += w.OpsFailed
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d disagreements or failed operations\n", bad)
		return 1
	}
	fmt.Println("selfcheck: both sets agree within the bounds")
	return 0
}
