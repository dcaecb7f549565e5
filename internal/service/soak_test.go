package service

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/workload"
)

// soakJob is the test-side ground truth for one submitted job.
type soakJob struct {
	idx       int
	n         int
	tenant    string
	injected  bool // one body panic on the first attempt
	cancelled bool // Cancel() returned true
	job       *Job
	counts    []atomic.Int32
}

// TestSoakMultiTenant drives one shared fleet with a concurrent stream
// of jobs from five tenants — mixed schemes, priorities, weights,
// injected body panics (retried) and mid-flight cancellations — and
// then reconciles every report against the scraped telemetry:
//
//   - every successful job executed each iteration exactly once per
//     attempt (exactly once when it was never retried);
//   - per-tenant chunk and iteration totals from the aggregator equal
//     the sums over the tenant's job handles, cancelled jobs included;
//   - the Prometheus rendering agrees with the same sums;
//   - cancelling one job never stalls the others (the whole stream
//     drains).
func TestSoakMultiTenant(t *testing.T) {
	bus := telemetry.NewBus(1 << 17)
	agg := telemetry.NewAggregator(bus.Dropped)
	bus.Subscribe(agg)
	defer bus.Close()

	// A scale-1 fleet: WorkScale > 1 repeats bodies (slow-machine
	// emulation), which would break the exactly-once counts below.
	s, err := New(Options{
		Workers:      fleet(1, 1, 1, 1, 1, 1),
		Retries:      1,
		RetryBackoff: time.Millisecond,
		Telemetry:    bus,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer s.Close()
	ctx := testCtx(t)

	tenants := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	schemes := []sched.Scheme{
		sched.CSSScheme{K: 4},
		sched.GSSScheme{},
		sched.NewDCSS(4),
		sched.NewDGSS(2),
	}
	const total = 120
	jobs := make([]*soakJob, total)
	for i := range jobs {
		jobs[i] = &soakJob{
			idx:      i,
			n:        150 + (i%16)*25,
			tenant:   tenants[i%len(tenants)],
			injected: i%13 == 5,
		}
		jobs[i].counts = make([]atomic.Int32, jobs[i].n)
	}

	// Submit concurrently from several goroutines: the admission path
	// must hold up under contention, not just a for loop.
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < total; i += 6 {
				sj := jobs[i]
				var tripped atomic.Bool
				body := func(i int) { sj.counts[i].Add(1) }
				if sj.injected {
					mid := sj.n / 3
					body = func(i int) {
						if i == mid && tripped.CompareAndSwap(false, true) {
							panic("injected worker death")
						}
						sj.counts[i].Add(1)
					}
				}
				spec := JobSpec{
					Scheme:   schemes[sj.idx%len(schemes)],
					Workload: workload.Uniform{N: sj.n},
					Body:     body,
					Tenant:   sj.tenant,
					Priority: sj.idx % 3,
					Weight:   float64(1 + sj.idx%2),
				}
				if sj.idx%7 == 0 {
					spec.Deadline = time.Now().Add(time.Hour)
				}
				j, err := s.Submit(ctx, spec)
				if err != nil {
					t.Errorf("Submit %d: %v", sj.idx, err)
					return
				}
				sj.job = j
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Cancel a spread of jobs mid-flight (disjoint from the injected
	// set, so retry accounting stays deterministic).
	for i := 15; i < total; i += 15 {
		jobs[i].cancelled = jobs[i].job.Cancel()
	}

	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	var succeeded, cancelled, requeued int
	sumChunks := map[string]uint64{}
	sumIters := map[string]uint64{}
	jobCount := map[string]uint64{}
	for _, sj := range jobs {
		j := sj.job
		jobCount[sj.tenant]++
		sumChunks[sj.tenant] += uint64(j.ChunksGranted())
		sumIters[sj.tenant] += uint64(j.Granted())
		rep, werr := j.Wait(ctx)
		switch {
		case sj.cancelled:
			cancelled++
			if !errors.Is(werr, ErrCancelled) {
				t.Errorf("job %d: cancelled but err = %v", sj.idx, werr)
			}
		default:
			succeeded++
			if werr != nil {
				t.Errorf("job %d (%s): %v", sj.idx, sj.tenant, werr)
				continue
			}
			if rep.Iterations != sj.n {
				t.Errorf("job %d: Iterations = %d, want %d", sj.idx, rep.Iterations, sj.n)
			}
			wantAttempts := 1
			if sj.injected {
				wantAttempts = 2
				requeued++
			}
			if got := j.Attempts(); got != wantAttempts {
				t.Errorf("job %d: Attempts = %d, want %d", sj.idx, got, wantAttempts)
			}
			for i := range sj.counts {
				c := sj.counts[i].Load()
				if !sj.injected && c != 1 {
					t.Fatalf("job %d: iteration %d executed %d times, want exactly 1", sj.idx, i, c)
				}
				if sj.injected && (c < 1 || c > 2) {
					t.Fatalf("job %d: iteration %d executed %d times, want 1..2 (once per attempt)", sj.idx, i, c)
				}
			}
		}
	}
	if succeeded+cancelled != total {
		t.Fatalf("accounted %d jobs of %d", succeeded+cancelled, total)
	}
	if st := s.Stats(); st.Queued != 0 || st.Active != 0 || st.Outstanding != 0 {
		t.Errorf("Stats after drain = %+v, want empty", st)
	}

	// Telemetry reconciliation: the aggregator saw exactly what the job
	// handles report, tenant by tenant.
	bus.Flush()
	if d := bus.Dropped(); d != 0 {
		t.Fatalf("bus dropped %d events; reconciliation needs a lossless ring", d)
	}
	snap := agg.Snapshot()
	if snap.JobsSubmitted != total {
		t.Errorf("JobsSubmitted = %d, want %d", snap.JobsSubmitted, total)
	}
	if int(snap.JobsFinished) != succeeded {
		t.Errorf("JobsFinished = %d, want %d", snap.JobsFinished, succeeded)
	}
	if int(snap.JobsCancelled) != cancelled {
		t.Errorf("JobsCancelled = %d, want %d", snap.JobsCancelled, cancelled)
	}
	if int(snap.JobsRequeued) != requeued {
		t.Errorf("JobsRequeued = %d, want %d", snap.JobsRequeued, requeued)
	}
	for _, tn := range tenants {
		ts, ok := snap.Tenants[tn]
		if !ok {
			t.Errorf("tenant %q missing from snapshot", tn)
			continue
		}
		if ts.Jobs != jobCount[tn] {
			t.Errorf("tenant %s: Jobs = %d, want %d", tn, ts.Jobs, jobCount[tn])
		}
		if ts.Chunks != sumChunks[tn] {
			t.Errorf("tenant %s: telemetry Chunks = %d, summed job chunks = %d", tn, ts.Chunks, sumChunks[tn])
		}
		if ts.Iterations != sumIters[tn] {
			t.Errorf("tenant %s: telemetry Iterations = %d, summed job grants = %d", tn, ts.Iterations, sumIters[tn])
		}
	}

	// The scraped Prometheus rendering must agree with the same sums.
	var buf bytes.Buffer
	if err := agg.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	scraped := scrapeTenantCounter(t, buf.String(), "loopsched_tenant_chunks_total")
	for _, tn := range tenants {
		if scraped[tn] != sumChunks[tn] {
			t.Errorf("scraped chunks for %s = %d, summed job chunks = %d", tn, scraped[tn], sumChunks[tn])
		}
	}
}

// scrapeTenantCounter parses `name{tenant="x"} value` lines from a
// Prometheus text exposition.
func scrapeTenantCounter(t *testing.T, text, name string) map[string]uint64 {
	t.Helper()
	out := map[string]uint64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	prefix := name + `{tenant="`
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		q := strings.Index(rest, `"`)
		if q < 0 {
			t.Fatalf("malformed metric line: %s", line)
		}
		tenant := rest[:q]
		fields := strings.Fields(rest[q+2:])
		if len(fields) != 1 {
			t.Fatalf("malformed metric line: %s", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			t.Fatalf("parse %s: %v", line, err)
		}
		out[tenant] = uint64(v)
	}
	if len(out) == 0 {
		t.Fatalf("no %s series in scrape:\n%s", name, text)
	}
	return out
}

// TestCancellationNeverStallsOthers pairs each tenant with a victim
// job that gets cancelled the moment it starts and a bystander that
// must still finish promptly.
func TestCancellationNeverStallsOthers(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1, 1, 1)})
	ctx := testCtx(t)
	type pair struct{ victim, bystander *Job }
	var pairs []pair
	for i := 0; i < 8; i++ {
		tn := fmt.Sprintf("tenant-%d", i%4)
		victim, err := s.Submit(ctx, withTenant(uniformSpec(1<<20, func(int) {}), tn))
		if err != nil {
			t.Fatalf("Submit victim %d: %v", i, err)
		}
		bystander, err := s.Submit(ctx, withTenant(uniformSpec(2000, nil), tn))
		if err != nil {
			t.Fatalf("Submit bystander %d: %v", i, err)
		}
		pairs = append(pairs, pair{victim, bystander})
	}
	for _, p := range pairs {
		p.victim.Cancel()
	}
	for i, p := range pairs {
		if _, err := p.bystander.Wait(ctx); err != nil {
			t.Errorf("bystander %d stalled by cancellation: %v", i, err)
		}
	}
}
