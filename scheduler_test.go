package loopsched_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched"
)

// TestSchedulerPublicSurface exercises the job-centric API end to end
// through the package's public names only: NewScheduler, Submit with
// tenants and priorities, Job.Wait/Report/Cancel, Stats, Drain, Close
// and the sentinel errors — the streaming counterpart of Run.
func TestSchedulerPublicSurface(t *testing.T) {
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
		Workers: []*loopsched.WorkerSpec{
			{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 1}, {WorkScale: 1},
		},
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// A stream of jobs from two tenants on one shared fleet.
	const perTenant, n = 4, 4000
	type handle struct {
		job   *loopsched.Job
		count *atomic.Int64
	}
	var handles []handle
	for i := 0; i < 2*perTenant; i++ {
		var count atomic.Int64
		j, err := s.Submit(ctx, loopsched.JobSpec{
			Scheme:   loopsched.NewCSS(8),
			Workload: loopsched.Uniform{N: n},
			Body:     func(int) { count.Add(1) },
			Tenant:   fmt.Sprintf("tenant-%d", i%2),
			Priority: i % 3,
			Weight:   float64(1 + i%2),
		})
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		handles = append(handles, handle{j, &count})
	}
	for i, h := range handles {
		rep, err := h.job.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if rep.Iterations != n {
			t.Errorf("job %d: Iterations = %d, want %d", i, rep.Iterations, n)
		}
		if got := h.count.Load(); got != n {
			t.Errorf("job %d: body ran %d times, want %d", i, got, n)
		}
		if st := h.job.State(); st != loopsched.JobSucceeded {
			t.Errorf("job %d: state %v, want %v", i, st, loopsched.JobSucceeded)
		}
	}
	if st := s.Stats(); st.Outstanding != 0 || st.Tenants != 2 {
		t.Errorf("Stats = %+v, want 0 outstanding across 2 tenants", st)
	}

	// The per-tenant accounting reached the session's aggregator.
	tele.Flush()
	snap := tele.Aggregator().Snapshot()
	for _, tn := range []string{"tenant-0", "tenant-1"} {
		ts, ok := snap.Tenants[tn]
		if !ok || ts.Jobs != perTenant {
			t.Errorf("tenant %s: snapshot %+v, want %d jobs", tn, ts, perTenant)
		}
	}

	// Submit rejects bad specs without touching the fleet.
	if _, err := s.Submit(ctx, loopsched.JobSpec{Workload: loopsched.Uniform{N: 1}, Body: func(int) {}}); err == nil {
		t.Error("Submit accepted a spec with no scheme")
	}

	// Cancel is observable through the sentinel.
	release := make(chan struct{})
	blocked, err := s.Submit(ctx, loopsched.JobSpec{
		Scheme:   loopsched.NewCSS(1),
		Workload: loopsched.Uniform{N: 1 << 20},
		Body:     func(int) { <-release },
	})
	if err != nil {
		t.Fatal(err)
	}
	if !blocked.Cancel() {
		t.Error("Cancel returned false for a live job")
	}
	if _, err := blocked.Wait(ctx); !errors.Is(err, loopsched.ErrJobCancelled) {
		t.Errorf("cancelled job error = %v, want ErrJobCancelled", err)
	}
	// A worker may have entered the body before the cancel: let it
	// return, or Close below waits on it forever.
	close(release)

	// Drain ends admission permanently; Close ends everything.
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Submit(ctx, validJobSpec()); !errors.Is(err, loopsched.ErrSchedulerDraining) {
		t.Errorf("Submit while draining = %v, want ErrSchedulerDraining", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Submit(ctx, validJobSpec()); !errors.Is(err, loopsched.ErrSchedulerClosed) {
		t.Errorf("Submit after close = %v, want ErrSchedulerClosed", err)
	}
}

func validJobSpec() loopsched.JobSpec {
	return loopsched.JobSpec{
		Scheme:   loopsched.NewCSS(4),
		Workload: loopsched.Uniform{N: 100},
		Body:     func(int) {},
	}
}

// TestSchedulerRefusesACreditWindow: NewScheduler answers a positive
// CreditWindow with ErrCreditWindow, since no count caps a batch, and
// starts a fleet at zero, the field's only other use.
func TestSchedulerRefusesACreditWindow(t *testing.T) {
	workers := []*loopsched.WorkerSpec{{WorkScale: 1}}
	if s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{Workers: workers, CreditWindow: 4}); !errors.Is(err, loopsched.ErrCreditWindow) {
		if s != nil {
			s.Close()
		}
		t.Fatalf("CreditWindow 4: NewScheduler error = %v, want ErrCreditWindow", err)
	}
	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{Workers: workers, CreditWindow: 0})
	if err != nil {
		t.Fatalf("CreditWindow 0: %v", err)
	}
	defer s.Close()
	j, err := s.Submit(context.Background(), validJobSpec())
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := j.Wait(context.Background()); err != nil || rep.Iterations != 100 {
		t.Fatalf("CreditWindow 0: %d iterations, err %v", rep.Iterations, err)
	}
}

// TestSchedulerQuota checks the public quota knob: a tenant at its
// queue cap gets ErrTenantQueueFull while other tenants keep flowing.
func TestSchedulerQuota(t *testing.T) {
	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
		Workers:            []*loopsched.WorkerSpec{{WorkScale: 1}},
		MaxActive:          1,
		MaxQueuedPerTenant: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	release, started := make(chan struct{}), make(chan struct{})
	var once sync.Once
	hog, err := s.Submit(ctx, loopsched.JobSpec{
		Scheme:   loopsched.NewCSS(1),
		Workload: loopsched.Uniform{N: 1 << 20},
		Body: func(int) {
			once.Do(func() { close(started) })
			<-release
		},
		Tenant: "greedy",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Only once the hog is admitted does the queue quota have room for
	// exactly one waiting job; its first iteration says it was.
	select {
	case <-started:
	case <-ctx.Done():
		t.Fatal("hog never admitted")
	}
	if _, err := s.Submit(ctx, withTenantSpec("greedy")); err != nil {
		t.Fatalf("first queued job: %v", err)
	}
	if _, err := s.Submit(ctx, withTenantSpec("greedy")); !errors.Is(err, loopsched.ErrTenantQueueFull) {
		t.Errorf("over-quota Submit = %v, want ErrTenantQueueFull", err)
	}
	other, err := s.Submit(ctx, withTenantSpec("modest"))
	if err != nil {
		t.Fatalf("other tenant blocked by greedy's quota: %v", err)
	}
	close(release)
	hog.Cancel()
	if _, err := other.Wait(ctx); err != nil {
		t.Fatalf("modest tenant's job: %v", err)
	}
}

func withTenantSpec(tenant string) loopsched.JobSpec {
	spec := validJobSpec()
	spec.Tenant = tenant
	return spec
}
