package service

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// Report is the paper-style execution report a finished job returns.
type Report = metrics.Report

// JobSpec describes one loop job for Scheduler.Submit.
type JobSpec struct {
	// Scheme is the self-scheduling scheme (required).
	Scheme sched.Scheme
	// Workload is the loop: its length and per-iteration costs
	// (required).
	Workload workload.Workload
	// Body executes one iteration for its side effects (required). It
	// must be safe for concurrent invocation on distinct iterations.
	Body func(i int)
	// Tenant names the submitting tenant for quotas, fairness and
	// telemetry attribution. Empty means "default".
	Tenant string
	// Priority orders jobs strictly: the arbiter never grants work to
	// a job while a runnable job with a higher Priority wants credit.
	// Equal priorities share by Weight. Zero is the normal class.
	Priority int
	// Weight is the job's fair share within its priority class
	// (deficit-round-robin credit per round). <= 0 means 1.
	Weight float64
	// Deadline, when set, fails the job (context.DeadlineExceeded)
	// if it has not finished by then. Chunks already being executed
	// still run to completion.
	Deadline time.Time
	// Retries is the re-admission budget when an attempt fails: 0
	// inherits the scheduler's Options.Retries, a negative value
	// disables retries for this job.
	Retries int
}

// validate applies the same structural checks Run's RunSpec validation
// applies, so Submit and Run reject bad specs identically.
func (spec JobSpec) validate() error {
	if spec.Scheme == nil {
		return fmt.Errorf("service: JobSpec.Scheme is required")
	}
	if spec.Workload == nil {
		return fmt.Errorf("service: JobSpec.Workload is required")
	}
	if spec.Body == nil {
		return fmt.Errorf("service: JobSpec.Body is required")
	}
	return nil
}

// retryBudget resolves the job's effective retry budget.
func (spec JobSpec) retryBudget(def int) int {
	switch {
	case spec.Retries < 0:
		return 0
	case spec.Retries == 0:
		return def
	default:
		return spec.Retries
	}
}

// State is a job's lifecycle state.
type State int32

const (
	// StateQueued means waiting for admission (or for a retry slot).
	StateQueued State = iota
	// StateRunning means admitted: chunks are being granted/executed.
	StateRunning
	// StateSucceeded means every iteration executed exactly once.
	StateSucceeded
	// StateFailed means the job failed terminally.
	StateFailed
	// StateCancelled means the job was withdrawn.
	StateCancelled
)

// Terminal reports whether the state is final.
func (st State) Terminal() bool {
	return st == StateSucceeded || st == StateFailed || st == StateCancelled
}

// String returns the lower-case state name.
func (st State) String() string {
	switch st {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateSucceeded:
		return "succeeded"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return "invalid"
}

// attempt is one admission's execution state: the job's master for
// this attempt and every fleet worker's memory link to it.
type attempt struct {
	job   *Job
	m     *exec.Master
	links []exec.Link // by fleet worker
}

// wantsCredit reports whether the job's current attempt has chunks left
// to hand out.
func (j *Job) wantsCredit() bool {
	att := j.att.Load()
	return att != nil && !att.m.Drained()
}

// Job is a handle on one submitted job. All methods are safe for
// concurrent use.
type Job struct {
	s         *Scheduler
	id        int
	spec      JobSpec
	tenant    *tenant
	submitted time.Time

	state atomic.Int32
	att   atomic.Pointer[attempt]
	done  chan struct{}

	// Guarded by s.mu.
	attempts int
	deficit  float64
	retryAt  time.Time
	started  time.Time
	err      error
	report   Report
	// The masters of the attempts that failed, in order: with the
	// current one's, they are the job's whole grant book, which
	// reconciles exactly with its grant telemetry.
	past []*exec.Master
}

// ID returns the scheduler-assigned job id (1-based; matches the Job
// tag on the job's telemetry events).
func (j *Job) ID() int { return j.id }

// Tenant returns the tenant name the job was submitted under.
func (j *Job) Tenant() string { return j.tenant.name }

// State returns the job's current lifecycle state.
func (j *Job) State() State { return State(j.state.Load()) }

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Attempts returns how many times the job has been admitted.
func (j *Job) Attempts() int {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	return j.attempts
}

// Granted returns the iterations granted to the job so far, summed
// across every attempt (frozen once the job is terminal). It matches
// the iterations the job's grant telemetry reports exactly.
func (j *Job) Granted() int64 {
	_, iters := j.granted()
	return iters
}

// ChunksGranted returns the chunks granted to the job so far, summed
// across every attempt. It matches the job's grant telemetry event count
// exactly, even for cancelled and retried jobs.
func (j *Job) ChunksGranted() int {
	chunks, _ := j.granted()
	return chunks
}

// granted sums the grant books of the job's masters.
func (j *Job) granted() (chunks int, iters int64) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	if att := j.att.Load(); att != nil {
		chunks, iters = att.m.Granted()
	}
	for _, m := range j.past {
		c, n := m.Granted()
		chunks, iters = chunks+c, iters+n
	}
	return chunks, iters
}

// Wait blocks until the job is terminal (returning its report and
// final error) or ctx is done (returning ctx's error).
func (j *Job) Wait(ctx context.Context) (Report, error) {
	select {
	case <-j.done:
		return j.report, j.err
	case <-ctx.Done():
		return Report{}, ctx.Err()
	}
}

// Report returns the job's report — final for terminal jobs, a live
// snapshot for running ones — plus the final error and whether the job
// is terminal.
func (j *Job) Report() (Report, error, bool) {
	j.s.mu.Lock()
	defer j.s.mu.Unlock()
	if j.State().Terminal() {
		return j.report, j.err, true
	}
	return j.s.reportLocked(j), nil, false
}

// Cancel withdraws the job. Queued jobs never start; running jobs stop
// granting new chunks immediately, but chunks a worker already started
// run to completion (cancellation, like preemption, never splits a
// granted chunk). Cancel reports whether this call performed the
// cancellation; cancelling a terminal job is a false no-op. Cancelled
// jobs report ErrCancelled.
func (j *Job) Cancel() bool {
	s := j.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.State().Terminal() {
		return false
	}
	s.finishLocked(j, StateCancelled, ErrCancelled)
	return true
}

// weight resolves the job's effective fairness weight.
func (j *Job) weight() float64 {
	if j.spec.Weight > 0 {
		return j.spec.Weight
	}
	return 1
}
