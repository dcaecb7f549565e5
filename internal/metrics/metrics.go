// Package metrics defines the measurement vocabulary of the paper's
// evaluation: per-PE communication / waiting / computation time
// breakdowns (Tables 2 and 3), the parallel time T_p, speedup curves
// (Figures 4–7) and load-balance statistics.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"text/tabwriter"

	"loopsched/internal/telemetry/hist"
)

// Times is one slave's wall-clock decomposition, in seconds:
//
//	Comm — transferring requests, assignments and results
//	Wait — blocked on the master (queueing, scheduling latency) or idle
//	Comp — executing loop iterations
//	Idle — compute loop stalled on an unanswered prefetch (pipelined
//	       runtimes only; the round-trip residue that was NOT hidden
//	       behind computation)
//
// A serial run reports Idle = 0 and its full round-trip under Comm; a
// pipelined run reports Comm ≈ 0 and only the prefetch-miss residue
// under Idle, so Comm(serial) − Idle(pipelined) is the communication
// the overlap managed to hide.
type Times struct {
	Comm float64
	Wait float64
	Comp float64
	Idle float64
}

// Total returns the slave's busy-plus-blocked span.
func (t Times) Total() float64 { return t.Comm + t.Wait + t.Comp + t.Idle }

// String renders the paper's "T_com/T_wait/T_comp" cell format; a
// non-zero Idle (pipelined runs) is appended as a fourth "+Xi" cell.
func (t Times) String() string {
	if t.Idle > 0 {
		return fmt.Sprintf("%.1f/%.1f/%.1f/+%.1fi", t.Comm, t.Wait, t.Comp, t.Idle)
	}
	return fmt.Sprintf("%.1f/%.1f/%.1f", t.Comm, t.Wait, t.Comp)
}

// Report is the outcome of one scheduled loop execution.
type Report struct {
	Scheme   string
	Workload string
	Workers  int
	// PerWorker has one Times entry per slave.
	PerWorker []Times
	// Tp is the parallel execution time measured at the master.
	Tp float64
	// Chunks is the number of scheduling steps (master services).
	Chunks int
	// Iterations actually executed (for coverage asserts).
	Iterations int
	// Replans counts master re-planning events (distributed schemes).
	Replans int
	// Shards, when non-empty, is the per-shard breakdown of a
	// hierarchical (two-level) run: one entry per submaster.
	Shards []ShardStats
	// Steals counts work moved between peers: root-level rebalances in
	// a hierarchical run (tail ranges moved from one shard's partition
	// to another).
	Steals int
	// GrantLatency summarizes the per-chunk request-to-grant wait at
	// the scheduler (p50/p95/p99); CompLatency summarizes each chunk's
	// measured computation time. A backend that does not measure a
	// dimension leaves its Count zero.
	GrantLatency hist.Summary
	CompLatency  hist.Summary
}

// ShardStats is one submaster's slice of a hierarchical run.
type ShardStats struct {
	// Shard is the 0-based shard index.
	Shard int
	// Workers is the number of slaves the submaster drives.
	Workers int
	// Iterations the shard executed.
	Iterations int
	// Chunks is the number of local scheduling steps (submaster grants).
	Chunks int
	// Fetches is the number of super-chunks obtained from the root.
	Fetches int
	// Steals is how many of those fetches were tail ranges stolen from
	// another shard's partition.
	Steals int
	// Comp is the shard's aggregate computation time in seconds.
	Comp float64
	// Finished is when the shard's last worker drained, in seconds from
	// the start of the run (0 when the backend does not measure it).
	Finished float64
}

// CompImbalance returns (max−min)/mean over the per-worker computation
// times: the paper's Table 2 vs Table 3 "well-balanced execution"
// criterion. Zero means perfectly balanced; it is 0 for p < 2.
func (r Report) CompImbalance() float64 {
	if len(r.PerWorker) < 2 {
		return 0
	}
	minC, maxC, sum := math.Inf(1), math.Inf(-1), 0.0
	for _, t := range r.PerWorker {
		if t.Comp < minC {
			minC = t.Comp
		}
		if t.Comp > maxC {
			maxC = t.Comp
		}
		sum += t.Comp
	}
	mean := sum / float64(len(r.PerWorker))
	if mean == 0 {
		return 0
	}
	return (maxC - minC) / mean
}

// CompCV returns the coefficient of variation of computation times.
func (r Report) CompCV() float64 {
	if len(r.PerWorker) < 2 {
		return 0
	}
	var sum float64
	for _, t := range r.PerWorker {
		sum += t.Comp
	}
	mean := sum / float64(len(r.PerWorker))
	if mean == 0 {
		return 0
	}
	var v float64
	for _, t := range r.PerWorker {
		d := t.Comp - mean
		v += d * d
	}
	return math.Sqrt(v/float64(len(r.PerWorker))) / mean
}

// MeanWait returns the average waiting time across slaves.
func (r Report) MeanWait() float64 {
	if len(r.PerWorker) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.PerWorker {
		sum += t.Wait
	}
	return sum / float64(len(r.PerWorker))
}

// MeanComm returns the average communication time across slaves.
func (r Report) MeanComm() float64 {
	if len(r.PerWorker) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.PerWorker {
		sum += t.Comm
	}
	return sum / float64(len(r.PerWorker))
}

// MeanIdle returns the average prefetch-stall time across slaves —
// the part of the master round-trip a pipelined run failed to hide.
func (r Report) MeanIdle() float64 {
	if len(r.PerWorker) == 0 {
		return 0
	}
	var sum float64
	for _, t := range r.PerWorker {
		sum += t.Idle
	}
	return sum / float64(len(r.PerWorker))
}

// HiddenComm estimates how much communication time the pipelined run
// `pipelined` hid relative to the serial run `serial` of the same
// problem: the serial exposed overhead (Comm) minus what the pipeline
// still exposes (Comm plus prefetch stalls), clamped at zero.
func HiddenComm(serial, pipelined Report) float64 {
	h := serial.MeanComm() - (pipelined.MeanComm() + pipelined.MeanIdle())
	if h < 0 {
		return 0
	}
	return h
}

// Speedup is one point of a Figures 4–7 curve.
type Speedup struct {
	P  int
	Sp float64
}

// SpeedupCurve computes S_p = T_1 / T_p for a series of runs; t1 is
// the single-PE reference time (the paper uses one fast PE).
func SpeedupCurve(t1 float64, runs map[int]float64) []Speedup {
	ps := make([]int, 0, len(runs))
	for p := range runs {
		ps = append(ps, p)
	}
	sort.Ints(ps)
	curve := make([]Speedup, 0, len(ps))
	for _, p := range ps {
		tp := runs[p]
		sp := 0.0
		if tp > 0 {
			sp = t1 / tp
		}
		curve = append(curve, Speedup{P: p, Sp: sp})
	}
	return curve
}

// FormatTable renders reports in the layout of the paper's Tables 2–3:
// one row per PE with T_com/T_wait/T_comp cells, one column per
// scheme, and a final T_p row.
func FormatTable(title string, reports []Report) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "PE")
	for _, r := range reports {
		fmt.Fprintf(tw, "\t%s", r.Scheme)
	}
	fmt.Fprintln(tw)
	maxP := 0
	for _, r := range reports {
		if len(r.PerWorker) > maxP {
			maxP = len(r.PerWorker)
		}
	}
	for i := 0; i < maxP; i++ {
		fmt.Fprintf(tw, "%d", i+1)
		for _, r := range reports {
			if i < len(r.PerWorker) {
				fmt.Fprintf(tw, "\t%s", r.PerWorker[i])
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	fmt.Fprint(tw, "Tp")
	for _, r := range reports {
		fmt.Fprintf(tw, "\t%.1f", r.Tp)
	}
	fmt.Fprintln(tw)
	// The paper argues Table 3's executions are "well-balanced" by
	// eye; the imbalance row quantifies it ((max−min)/mean of T_comp).
	fmt.Fprint(tw, "Imb")
	for _, r := range reports {
		fmt.Fprintf(tw, "\t%.2f", r.CompImbalance())
	}
	fmt.Fprintln(tw)
	// Per-chunk compute latency percentiles, when the backend measured
	// them (milliseconds, p50/p95/p99).
	any := false
	for _, r := range reports {
		if r.CompLatency.Count > 0 {
			any = true
		}
	}
	if any {
		fmt.Fprint(tw, "Lat")
		for _, r := range reports {
			if r.CompLatency.Count == 0 {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.1f/%.1f/%.1fms",
				r.CompLatency.P50*1e3, r.CompLatency.P95*1e3, r.CompLatency.P99*1e3)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return sb.String()
}

// FormatShards renders the per-shard breakdown of a hierarchical run
// as an aligned table, one row per submaster plus a totals row.
func FormatShards(r Report) string {
	if len(r.Shards) == 0 {
		return ""
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s: %d workers in %d shards, Tp %.2f s, %d steals\n",
		r.Scheme, r.Workload, r.Workers, len(r.Shards), r.Tp, r.Steals)
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "shard\tworkers\titers\tchunks\tfetches\tsteals\tcomp\tfinished")
	var total ShardStats
	for _, s := range r.Shards {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\n",
			s.Shard, s.Workers, s.Iterations, s.Chunks, s.Fetches, s.Steals, s.Comp, s.Finished)
		total.Workers += s.Workers
		total.Iterations += s.Iterations
		total.Chunks += s.Chunks
		total.Fetches += s.Fetches
		total.Steals += s.Steals
		total.Comp += s.Comp
		if s.Finished > total.Finished {
			total.Finished = s.Finished
		}
	}
	fmt.Fprintf(tw, "all\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f\n",
		total.Workers, total.Iterations, total.Chunks, total.Fetches, total.Steals, total.Comp, total.Finished)
	tw.Flush()
	return sb.String()
}

// FormatSpeedups renders Figures 4–7 as aligned text series, one line
// per scheme.
func FormatSpeedups(title string, curves map[string][]Speedup) string {
	var sb strings.Builder
	sb.WriteString(title + "\n")
	tw := tabwriter.NewWriter(&sb, 2, 4, 2, ' ', 0)
	names := make([]string, 0, len(curves))
	for n := range curves {
		names = append(names, n)
	}
	sort.Strings(names)
	// Header: p values from the first curve.
	fmt.Fprint(tw, "scheme")
	if len(names) > 0 {
		for _, pt := range curves[names[0]] {
			fmt.Fprintf(tw, "\tp=%d", pt.P)
		}
	}
	fmt.Fprintln(tw)
	for _, n := range names {
		fmt.Fprint(tw, n)
		for _, pt := range curves[n] {
			fmt.Fprintf(tw, "\t%.2f", pt.Sp)
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return sb.String()
}
