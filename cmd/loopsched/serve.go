package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"loopsched"
)

// jobScript is the -serve input: one shared worker fleet and a stream
// of job templates submitted against it. Example:
//
//	{
//	  "workers": 8, "retries": 1,
//	  "jobs": [
//	    {"scheme": "TSS",  "workload": "uniform", "iterations": 20000,
//	     "tenant": "alpha", "weight": 2, "count": 6, "delay_ms": 2},
//	    {"scheme": "DTSS", "workload": "mandelbrot", "tenant": "beta",
//	     "priority": 1, "count": 3, "deadline_ms": 60000}
//	  ]
//	}
type jobScript struct {
	// Workers is the fleet size; the paper's fast/slow mix, like -real
	// (default 8).
	Workers int `json:"workers"`
	// Retries is the default re-admission budget for dying jobs.
	Retries int `json:"retries"`
	// Admission quota knobs; 0 means uncapped.
	MaxActive          int `json:"max_active"`
	MaxActivePerTenant int `json:"max_active_per_tenant"`
	MaxQueuedPerTenant int `json:"max_queued_per_tenant"`
	// Jobs are submitted in order; each entry expands to Count copies.
	Jobs []jobEntry `json:"jobs"`
}

type jobEntry struct {
	Scheme     string  `json:"scheme"`
	Workload   string  `json:"workload"`
	Iterations int     `json:"iterations"`
	Tenant     string  `json:"tenant"`
	Priority   int     `json:"priority"`
	Weight     float64 `json:"weight"`
	// Count is how many copies of this job to submit (default 1).
	Count int `json:"count"`
	// DelayMS pauses between copies, simulating an arrival stream.
	DelayMS int `json:"delay_ms"`
	// DeadlineMS, when > 0, sets each copy's deadline that far from
	// its submission.
	DeadlineMS int `json:"deadline_ms"`
	// Retries overrides the script-level budget (negative = none).
	Retries int `json:"retries"`
}

// serve runs the multi-tenant scheduler daemon over a job script: one
// shared fleet, every job submitted through the same admission queue
// and fairness arbiter, then a per-job log and a per-tenant summary.
func serve(path string, tele *loopsched.Telemetry, width, height, maxIter, sf int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	var script jobScript
	err = json.NewDecoder(f).Decode(&script)
	f.Close()
	if err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	if script.Workers <= 0 {
		script.Workers = 8
	}
	if len(script.Jobs) == 0 {
		return fmt.Errorf("%s: no jobs in script", path)
	}

	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
		Workers:            realWorkers(script.Workers),
		Retries:            script.Retries,
		MaxActive:          script.MaxActive,
		MaxActivePerTenant: script.MaxActivePerTenant,
		MaxQueuedPerTenant: script.MaxQueuedPerTenant,
		Telemetry:          tele,
	})
	if err != nil {
		return err
	}
	defer s.Close()
	ctx := context.Background()
	fmt.Printf("serve: fleet of %d workers, %d job templates\n",
		script.Workers, len(script.Jobs))

	type submitted struct {
		job    *loopsched.Job
		tenant string
		label  string
	}
	var jobs []submitted
	start := time.Now()
	for ei, e := range script.Jobs {
		scheme, err := loopsched.LookupScheme(e.Scheme)
		if err != nil {
			return err
		}
		w, err := buildWorkload(e.Workload, e.Iterations, width, height, maxIter, sf)
		if err != nil {
			return err
		}
		count := e.Count
		if count <= 0 {
			count = 1
		}
		for c := 0; c < count; c++ {
			spec := loopsched.JobSpec{
				Scheme:   scheme,
				Workload: w,
				Body:     burnBody(w),
				Tenant:   e.Tenant,
				Priority: e.Priority,
				Weight:   e.Weight,
				Retries:  e.Retries,
			}
			if e.DeadlineMS > 0 {
				spec.Deadline = time.Now().Add(time.Duration(e.DeadlineMS) * time.Millisecond)
			}
			j, err := s.Submit(ctx, spec)
			if err != nil {
				return fmt.Errorf("submit template %d copy %d: %w", ei, c, err)
			}
			jobs = append(jobs, submitted{
				job: j, tenant: j.Tenant(),
				label: fmt.Sprintf("%s/%s", e.Scheme, w.Name()),
			})
			if e.DelayMS > 0 {
				time.Sleep(time.Duration(e.DelayMS) * time.Millisecond)
			}
		}
	}

	if err := s.Drain(ctx); err != nil {
		return err
	}
	wall := time.Since(start)

	// Per-job log, submission order.
	type tenantSum struct {
		jobs, ok, failed int
		iters, chunks    int64
	}
	sums := map[string]*tenantSum{}
	tw := tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "job\ttenant\tspec\tstate\titers\tchunks\tattempts\twall(s)")
	for _, sub := range jobs {
		j := sub.job
		rep, jerr := j.Wait(ctx)
		ts := sums[sub.tenant]
		if ts == nil {
			ts = &tenantSum{}
			sums[sub.tenant] = ts
		}
		ts.jobs++
		ts.iters += j.Granted()
		ts.chunks += int64(j.ChunksGranted())
		status := j.State().String()
		if jerr != nil {
			ts.failed++
			status = fmt.Sprintf("%s (%v)", status, jerr)
		} else {
			ts.ok++
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t%s\t%d\t%d\t%d\t%.3f\n",
			j.ID(), sub.tenant, sub.label, status,
			rep.Iterations, rep.Chunks, j.Attempts(), rep.Tp)
	}
	tw.Flush()

	// Per-tenant summary; with telemetry attached, the aggregator's
	// numbers (queue waits, requeues) join the job-handle sums.
	tenants := make([]string, 0, len(sums))
	for tn := range sums {
		tenants = append(tenants, tn)
	}
	sort.Strings(tenants)
	fmt.Printf("\nserve: %d jobs across %d tenants in %.3fs\n", len(jobs), len(tenants), wall.Seconds())
	tw = tabwriter.NewWriter(os.Stdout, 4, 4, 2, ' ', 0)
	if tele != nil {
		tele.Flush()
		snap := tele.Aggregator().Snapshot()
		fmt.Fprintln(tw, "tenant\tjobs\tok\tfailed\titers\tchunks\trequeues\tmean-wait(ms)\tchunk-p50/p95/p99(ms)\tbusy-cv")
		for _, tn := range tenants {
			ts, ag := sums[tn], snap.Tenants[tn]
			wait := 0.0
			if ag.Jobs > 0 {
				wait = 1000 * ag.QueueWaitSec / float64(ag.Jobs)
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.2f\t%.2f/%.2f/%.2f\t%.3f\n",
				tn, ts.jobs, ts.ok, ts.failed, ts.iters, ts.chunks, ag.Requeues, wait,
				1000*ag.CompP50, 1000*ag.CompP95, 1000*ag.CompP99, ag.BusyCV)
		}
	} else {
		fmt.Fprintln(tw, "tenant\tjobs\tok\tfailed\titers\tchunks")
		for _, tn := range tenants {
			ts := sums[tn]
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\n",
				tn, ts.jobs, ts.ok, ts.failed, ts.iters, ts.chunks)
		}
	}
	tw.Flush()
	return nil
}
