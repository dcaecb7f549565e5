package service

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// fleet builds one WorkerSpec per scale factor.
func fleet(scales ...int) []*exec.WorkerSpec {
	ws := make([]*exec.WorkerSpec, len(scales))
	for i, sc := range scales {
		ws[i] = &exec.WorkerSpec{WorkScale: sc}
	}
	return ws
}

// newTestScheduler starts a scheduler that is closed when the test
// ends, defaulting to a homogeneous 4-worker fleet.
func newTestScheduler(t *testing.T, o Options) *Scheduler {
	t.Helper()
	if len(o.Workers) == 0 {
		o.Workers = fleet(1, 1, 1, 1)
	}
	s, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// testCtx returns a context that expires comfortably before go test's
// own timeout, so a stuck scheduler fails loudly instead of hanging.
func testCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// uniformSpec is a plain CSS job over a uniform loop.
func uniformSpec(n int, body func(i int)) JobSpec {
	if body == nil {
		body = func(int) {}
	}
	return JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: n},
		Body:     body,
	}
}

// blockingJob submits a job whose iterations block until release is
// called. n is the iteration count (CSS chunk 1, so the job occupies
// up to n workers). release is idempotent.
func blockingJob(t *testing.T, s *Scheduler, tenant string, n int) (*Job, func()) {
	t.Helper()
	ch := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(ch) }) }
	j, err := s.Submit(context.Background(), JobSpec{
		Scheme:   sched.CSSScheme{K: 1},
		Workload: workload.Uniform{N: n},
		Body:     func(int) { <-ch },
		Tenant:   tenant,
	})
	if err != nil {
		t.Fatalf("Submit blocking job: %v", err)
	}
	t.Cleanup(release)
	return j, release
}

// waitState polls until the job reaches want or the deadline passes.
func waitState(t *testing.T, j *Job, want State) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("job %d stuck in %v, want %v", j.ID(), j.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestScheduler(t, Options{})
	ctx := testCtx(t)
	base := uniformSpec(100, nil)
	cases := []struct {
		name string
		mut  func(*JobSpec)
		want string
	}{
		{"missing scheme", func(sp *JobSpec) { sp.Scheme = nil }, "Scheme is required"},
		{"missing workload", func(sp *JobSpec) { sp.Workload = nil }, "Workload is required"},
		{"missing body", func(sp *JobSpec) { sp.Body = nil }, "Body is required"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := base
			tc.mut(&spec)
			if _, err := s.Submit(ctx, spec); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Submit: err = %v, want %q", err, tc.want)
			}
		})
	}
	if _, err := s.Submit(ctx, base); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestJobLifecycle(t *testing.T) {
	// A scale-1 fleet: WorkScale > 1 repeats the body to emulate slow
	// machines, which would break the exactly-once body count below.
	s := newTestScheduler(t, Options{Workers: fleet(1, 1, 1, 1)})
	ctx := testCtx(t)
	const n = 5000
	counts := make([]atomic.Int32, n)
	j, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 7},
		Workload: workload.Uniform{N: n},
		Body:     func(i int) { counts[i].Add(1) },
		Tenant:   "acme",
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if j.ID() < 1 {
		t.Errorf("ID() = %d, want >= 1", j.ID())
	}
	if got := j.Tenant(); got != "acme" {
		t.Errorf("Tenant() = %q, want acme", got)
	}
	rep, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.State() != StateSucceeded {
		t.Fatalf("State = %v, want succeeded", j.State())
	}
	if rep.Iterations != n {
		t.Errorf("Iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.Workers != 4 {
		t.Errorf("Workers = %d, want 4", rep.Workers)
	}
	if rep.Chunks == 0 {
		t.Error("Chunks = 0, want > 0")
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("iteration %d executed %d times, want exactly 1", i, c)
		}
	}
	if g := j.Granted(); g != n {
		t.Errorf("Granted = %d, want %d", g, n)
	}
	if got := j.Attempts(); got != 1 {
		t.Errorf("Attempts = %d, want 1", got)
	}
	if j.Cancel() {
		t.Error("Cancel on a terminal job returned true")
	}
	select {
	case <-j.Done():
	default:
		t.Error("Done() channel not closed after Wait")
	}
}

func TestStreamOfSchemes(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 2, 1, 3)})
	ctx := testCtx(t)
	schemes := []sched.Scheme{
		sched.CSSScheme{K: 8},
		sched.GSSScheme{},
		sched.NewDCSS(8),
		sched.NewDGSS(2),
	}
	var jobs []*Job
	for r := 0; r < 6; r++ {
		for si, sc := range schemes {
			n := 300 + 50*si
			j, err := s.Submit(ctx, JobSpec{
				Scheme:   sc,
				Workload: workload.Uniform{N: n},
				Body:     func(int) {},
				Tenant:   []string{"a", "b"}[r%2],
				Priority: si % 2,
			})
			if err != nil {
				t.Fatalf("Submit round %d scheme %s: %v", r, sc.Name(), err)
			}
			jobs = append(jobs, j)
		}
	}
	for _, j := range jobs {
		rep, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d (%s): %v", j.ID(), rep.Scheme, err)
		}
		if rep.Iterations != j.spec.Workload.Len() {
			t.Errorf("job %d: Iterations = %d, want %d", j.ID(), rep.Iterations, j.spec.Workload.Len())
		}
	}
	if st := s.Stats(); st.Outstanding != 0 || st.Queued != 0 || st.Active != 0 {
		t.Errorf("Stats after all jobs done = %+v, want all zero", st)
	}
}

func TestTenantQueueQuota(t *testing.T) {
	s := newTestScheduler(t, Options{
		Workers:            fleet(1, 1),
		MaxActive:          1,
		MaxQueuedPerTenant: 1,
	})
	ctx := testCtx(t)
	running, release := blockingJob(t, s, "t", 1)
	waitState(t, running, StateRunning)

	q1, err := s.Submit(ctx, withTenant(uniformSpec(50, nil), "t"))
	if err != nil {
		t.Fatalf("first queued submit: %v", err)
	}
	if _, err := s.Submit(ctx, withTenant(uniformSpec(50, nil), "t")); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("over-quota submit: err = %v, want ErrQueueFull", err)
	}
	// Another tenant's queue is unaffected.
	q2, err := s.Submit(ctx, withTenant(uniformSpec(50, nil), "other"))
	if err != nil {
		t.Fatalf("other-tenant submit: %v", err)
	}
	release()
	for _, j := range []*Job{running, q1, q2} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
}

func withTenant(spec JobSpec, tenant string) JobSpec {
	spec.Tenant = tenant
	return spec
}

func TestMaxActivePerTenant(t *testing.T) {
	s := newTestScheduler(t, Options{
		Workers:            fleet(1, 1, 1, 1),
		MaxActivePerTenant: 1,
	})
	ctx := testCtx(t)
	a1, release := blockingJob(t, s, "a", 1)
	waitState(t, a1, StateRunning)

	a2, err := s.Submit(ctx, withTenant(uniformSpec(50, nil), "a"))
	if err != nil {
		t.Fatalf("submit a2: %v", err)
	}
	b1, err := s.Submit(ctx, withTenant(uniformSpec(50, nil), "b"))
	if err != nil {
		t.Fatalf("submit b1: %v", err)
	}
	// Tenant b is not starved by a's quota...
	if _, err := b1.Wait(ctx); err != nil {
		t.Fatalf("b1: %v", err)
	}
	// ...while a's second job is still waiting for a's slot.
	if got := a2.State(); got != StateQueued {
		t.Fatalf("a2 state = %v, want queued while a1 blocks the tenant slot", got)
	}
	release()
	if _, err := a1.Wait(ctx); err != nil {
		t.Fatalf("a1: %v", err)
	}
	if _, err := a2.Wait(ctx); err != nil {
		t.Fatalf("a2: %v", err)
	}
}

func TestRetryAfterBodyPanic(t *testing.T) {
	s := newTestScheduler(t, Options{
		Workers:      fleet(1, 1),
		Retries:      2,
		RetryBackoff: time.Millisecond,
	})
	ctx := testCtx(t)
	const n = 400
	counts := make([]atomic.Int32, n)
	var tripped atomic.Bool
	j, err := s.Submit(ctx, uniformSpec(n, func(i int) {
		if i == n/2 && tripped.CompareAndSwap(false, true) {
			panic("injected worker death")
		}
		counts[i].Add(1)
	}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rep, err := j.Wait(ctx)
	if err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if j.State() != StateSucceeded {
		t.Fatalf("State = %v, want succeeded", j.State())
	}
	if got := j.Attempts(); got != 2 {
		t.Errorf("Attempts = %d, want 2", got)
	}
	if rep.Iterations != n {
		t.Errorf("Iterations = %d, want %d (the successful attempt covers the loop)", rep.Iterations, n)
	}
	for i := range counts {
		if c := counts[i].Load(); c < 1 || c > 2 {
			t.Fatalf("iteration %d executed %d times, want 1 or 2 (once per attempt at most)", i, c)
		}
	}
	// Cumulative grants cover both attempts.
	if g := j.Granted(); g < n {
		t.Errorf("Granted = %d, want >= %d across attempts", g, n)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	s := newTestScheduler(t, Options{
		Workers:      fleet(1, 1),
		Retries:      1,
		RetryBackoff: time.Millisecond,
	})
	ctx := testCtx(t)
	j, err := s.Submit(ctx, uniformSpec(100, func(i int) {
		if i == 0 {
			panic("always fails")
		}
	}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, werr := j.Wait(ctx)
	if werr == nil || !strings.Contains(werr.Error(), "panicked") {
		t.Fatalf("Wait err = %v, want body panic error", werr)
	}
	if j.State() != StateFailed {
		t.Fatalf("State = %v, want failed", j.State())
	}
	if got := j.Attempts(); got != 2 {
		t.Errorf("Attempts = %d, want 2 (original + one retry)", got)
	}

	// A job opting out of retries fails on its first attempt.
	noRetry, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: 100},
		Body: func(i int) {
			if i == 0 {
				panic("always fails")
			}
		},
		Retries: -1,
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, werr := noRetry.Wait(ctx); werr == nil {
		t.Fatal("Wait: no error from a job that always panics")
	}
	if got := noRetry.Attempts(); got != 1 {
		t.Errorf("Attempts = %d, want 1 (Retries < 0 disables retries)", got)
	}
}

func TestDeadlineBeforeAdmission(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1)})
	ctx := testCtx(t)
	j, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: 100},
		Body:     func(int) {},
		Deadline: time.Now().Add(-time.Second),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	_, werr := j.Wait(ctx)
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", werr)
	}
	if j.State() != StateFailed {
		t.Fatalf("State = %v, want failed", j.State())
	}
}

func TestDeadlineWhileRunning(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1)})
	ctx := testCtx(t)
	j, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 1},
		Workload: workload.Uniform{N: 1 << 20},
		Body:     func(int) { time.Sleep(100 * time.Microsecond) },
		Deadline: time.Now().Add(30 * time.Millisecond),
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rep, werr := j.Wait(ctx)
	if !errors.Is(werr, context.DeadlineExceeded) {
		t.Fatalf("Wait err = %v, want DeadlineExceeded", werr)
	}
	if rep.Iterations >= 1<<20 {
		t.Errorf("Iterations = %d: the deadline should have cut the job short", rep.Iterations)
	}
	// The fleet is still serviceable after the expiry.
	after, err := s.Submit(ctx, uniformSpec(200, nil))
	if err != nil {
		t.Fatalf("Submit after expiry: %v", err)
	}
	if _, err := after.Wait(ctx); err != nil {
		t.Fatalf("job after expiry: %v", err)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1), MaxActive: 1})
	ctx := testCtx(t)
	running, release := blockingJob(t, s, "", 1)
	waitState(t, running, StateRunning)

	queued, err := s.Submit(ctx, uniformSpec(50, nil))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if !queued.Cancel() {
		t.Fatal("Cancel(queued) = false, want true")
	}
	if _, werr := queued.Wait(ctx); !errors.Is(werr, ErrCancelled) {
		t.Fatalf("queued Wait err = %v, want ErrCancelled", werr)
	}

	if !running.Cancel() {
		t.Fatal("Cancel(running) = false, want true")
	}
	if _, werr := running.Wait(ctx); !errors.Is(werr, ErrCancelled) {
		t.Fatalf("running Wait err = %v, want ErrCancelled", werr)
	}
	// Cancellation never stalls the rest of the stream: a fresh job
	// still runs to completion (one worker is still parked in the
	// cancelled job's blocking body; the other picks this up).
	next, err := s.Submit(ctx, uniformSpec(200, nil))
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	if _, err := next.Wait(ctx); err != nil {
		t.Fatalf("job after cancel: %v", err)
	}
	release()
}

func TestDrain(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1, 1, 1)})
	ctx := testCtx(t)
	var jobs []*Job
	for i := 0; i < 20; i++ {
		j, err := s.Submit(ctx, withTenant(uniformSpec(300, nil), []string{"a", "b", "c"}[i%3]))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for _, j := range jobs {
		if j.State() != StateSucceeded {
			t.Errorf("job %d state after Drain = %v, want succeeded", j.ID(), j.State())
		}
	}
	if _, err := s.Submit(ctx, uniformSpec(10, nil)); !errors.Is(err, ErrDraining) {
		t.Fatalf("Submit after Drain: err = %v, want ErrDraining", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := s.Submit(ctx, uniformSpec(10, nil)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := s.Drain(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Drain after Close: err = %v, want ErrClosed", err)
	}
}

func TestCloseCancelsOutstanding(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1), MaxActive: 1})
	ctx := testCtx(t)
	running, release := blockingJob(t, s, "", 1)
	waitState(t, running, StateRunning)
	queued, err := s.Submit(ctx, uniformSpec(50, nil))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Close blocks until the fleet joins, which needs the blocked body
	// to return; release it once Close has cancelled the job, which it
	// does under the scheduler's lock before it joins — so the job cannot
	// finish normally first.
	go func() {
		<-running.Done()
		release()
	}()
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	for _, j := range []*Job{running, queued} {
		if _, werr := j.Wait(ctx); !errors.Is(werr, ErrClosed) {
			t.Errorf("job %d Wait err = %v, want ErrClosed", j.ID(), werr)
		}
		if j.State() != StateCancelled {
			t.Errorf("job %d state = %v, want cancelled", j.ID(), j.State())
		}
	}
	// Close is idempotent.
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestUnschedulableSpecFailsPermanently(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1), Retries: 3})
	ctx := testCtx(t)
	// A negative-length loop cannot build a policy; the failure is
	// permanent — no retry can fix the spec.
	j, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: negativeWorkload{},
		Body:     func(int) {},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, werr := j.Wait(ctx); werr == nil {
		t.Fatal("Wait: no error from an unschedulable spec")
	}
	if j.State() != StateFailed {
		t.Fatalf("State = %v, want failed", j.State())
	}
	if got := j.Attempts(); got != 0 {
		t.Errorf("Attempts = %d, want 0 (plan errors fail before admission)", got)
	}
}

// negativeWorkload reports an impossible loop length, so every scheme
// refuses to plan it.
type negativeWorkload struct{}

func (negativeWorkload) Name() string     { return "negative" }
func (negativeWorkload) Len() int         { return -1 }
func (negativeWorkload) Cost(int) float64 { return 1 }

// TestJobNeverHeldByOneWorker is the service leg of the starvation
// regression (exec.TestNoWorkerHoldsTheWholeLoop): on a TFSS N=2000
// job over a two-worker fleet, iteration 0 does not return until some
// other iteration has started — which only another worker can do while
// the first sits in iteration 0's chunk. The refill that fetches chunk
// 0 must leave the rest of the loop to be refilled or stolen.
func TestJobNeverHeldByOneWorker(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1)})
	other := make(chan struct{})
	var once sync.Once
	var starved atomic.Bool
	j, err := s.Submit(testCtx(t), JobSpec{
		Scheme:   sched.TFSSScheme{},
		Workload: workload.Uniform{N: 2000},
		Body: func(i int) {
			if i != 0 {
				once.Do(func() { close(other) })
				return
			}
			select {
			case <-other:
			case <-time.After(5 * time.Second):
				starved.Store(true) // give up so the job still ends
			}
		},
	})
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if _, err := j.Wait(testCtx(t)); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if starved.Load() {
		t.Error("iteration 0 waited 5s and no other worker started a chunk of the job")
	}
}

// TestSwitchDeliversBeforeLeaving is the regression test for a worker
// that turns to another job while it holds the results of its last one:
// on a one-worker fleet, job A is one small batch whose first iteration
// waits until job B — submitted once A runs, and of a higher priority, so
// the worker's next request goes to it — is admitted, and B's body waits
// for A to finish, which only A's results reaching A's master can do. A
// worker that took B's batch while still holding them would make B wait
// on itself; its body gives up after 5s so that the test still ends.
func TestSwitchDeliversBeforeLeaving(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1)})
	ctx := testCtx(t)
	running, gate := make(chan struct{}), make(chan struct{})
	a, err := s.Submit(ctx, uniformSpec(4, func(i int) {
		if i == 0 {
			close(running)
			<-gate
		}
	}))
	if err != nil {
		t.Fatalf("Submit A: %v", err)
	}
	<-running
	var held atomic.Bool
	spec := uniformSpec(4, func(i int) {
		if i != 0 {
			return
		}
		select {
		case <-a.Done():
		case <-time.After(5 * time.Second):
			held.Store(true) // give up so the job still ends
		}
	})
	spec.Priority = 1
	b, err := s.Submit(ctx, spec)
	if err != nil {
		t.Fatalf("Submit B: %v", err)
	}
	waitState(t, b, StateRunning)
	close(gate)
	for _, j := range []*Job{a, b} {
		if _, err := j.Wait(ctx); err != nil {
			t.Fatalf("job %d: %v", j.ID(), err)
		}
	}
	if held.Load() {
		t.Error("the worker took B's batch while it held A's results: B waited 5s for A")
	}
}
