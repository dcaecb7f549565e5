package loopsched

import (
	"time"

	"loopsched/internal/service"
)

// ---- The multi-tenant scheduler service ----
//
// Where Run executes one loop and tears its workers down, a Scheduler
// keeps a shared worker fleet alive and admits a stream of jobs from
// many tenants: an admission queue with per-tenant quotas, strict
// priorities with weighted-fair (deficit-round-robin) credit sharing
// inside each priority class, deadline enforcement, and a fail-queue
// that retries jobs whose attempt died. Preemption only ever withholds
// not-yet-granted chunks, so every job that succeeds executed each of
// its iterations exactly once. See docs/SERVICE.md.

// Scheduler owns a worker fleet and schedules a stream of jobs on it.
// Create one with NewScheduler, feed it with Submit, stop it with
// Drain and Close.
type Scheduler = service.Scheduler

// Job is a handle on one submitted job: Wait blocks for the terminal
// report, Report snapshots a live run, Cancel withdraws it.
type Job = service.Job

// JobSpec describes one loop job for Scheduler.Submit: the scheme,
// workload and body Run also takes, plus the tenant name, strict
// priority, fairness weight, optional deadline and retry budget.
type JobSpec = service.JobSpec

// JobState is a job's lifecycle state.
type JobState = service.State

// Job lifecycle states.
const (
	JobQueued    = service.StateQueued
	JobRunning   = service.StateRunning
	JobSucceeded = service.StateSucceeded
	JobFailed    = service.StateFailed
	JobCancelled = service.StateCancelled
)

// SchedulerStats is a point-in-time summary of a scheduler's queues.
type SchedulerStats = service.Stats

// Sentinel errors from Submit, Wait and Report; test with errors.Is.
var (
	// ErrSchedulerClosed is returned by Submit after Close, and
	// reported by jobs the closing scheduler cancelled.
	ErrSchedulerClosed = service.ErrClosed
	// ErrSchedulerDraining is returned by Submit after Drain began.
	ErrSchedulerDraining = service.ErrDraining
	// ErrJobCancelled is reported by jobs cancelled via Job.Cancel.
	ErrJobCancelled = service.ErrCancelled
	// ErrTenantQueueFull is returned by Submit when the tenant's
	// admission-queue quota is exhausted.
	ErrTenantQueueFull = service.ErrQueueFull
)

// SchedulerOptions configures NewScheduler. Only Workers is required.
type SchedulerOptions struct {
	// Workers is the shared fleet: one long-lived goroutine per entry,
	// heterogeneity emulated by WorkScale exactly as on BackendLocal.
	Workers []*WorkerSpec
	// CreditWindow is retired, as RunSpec.CreditWindow is: a positive
	// value is ErrCreditWindow. A fleet worker asks for a few of its
	// measured round trips' worth of work at its measured rate on the job
	// (8 chunks before anything is measured) and, while other jobs of its
	// priority want credit, no more than its job's fair-share allowance.
	CreditWindow int
	// ACP is the availability model distributed schemes report with.
	ACP ACPModel
	// MaxActive caps concurrently running jobs fleet-wide (0 = no cap).
	MaxActive int
	// MaxActivePerTenant caps concurrently running jobs per tenant
	// (0 = no cap).
	MaxActivePerTenant int
	// MaxQueuedPerTenant caps jobs waiting for admission per tenant;
	// Submit fails with ErrTenantQueueFull beyond it (0 = no cap).
	MaxQueuedPerTenant int
	// Retries is the default re-admission budget for jobs whose
	// attempt fails (JobSpec.Retries == 0 inherits it).
	Retries int
	// RetryBackoff is the fail-queue's base delay before re-admitting
	// a failed job; attempt k waits RetryBackoff << (k-1), capped at
	// one second (0 means the service default).
	RetryBackoff time.Duration
	// FairnessQuantum is the deficit-round-robin replenishment per
	// unit of fairness weight per round, in iterations (0 means the
	// service default).
	FairnessQuantum int
	// DisableReplan turns off the majority re-plan in every job.
	DisableReplan bool
	// Telemetry, when non-nil, streams job lifecycle and chunk events
	// — tagged with job and tenant identity — into the session's
	// aggregator and exporters, exactly as RunSpec.Telemetry does for
	// single runs.
	Telemetry *Telemetry
}

// NewScheduler starts the shared fleet and returns the ready
// scheduler. It is the streaming, multi-tenant counterpart of Run:
// telemetry flows through the same event bus, and every job is the same
// master Run's local backend runs, reached over memory links. Submit
// checks a JobSpec on the service's own path (scheme, workload and body
// required), not RunSpec's. Close the scheduler to release the fleet.
func NewScheduler(o SchedulerOptions) (*Scheduler, error) {
	if o.CreditWindow > 0 {
		return nil, ErrCreditWindow
	}
	so := service.Options{
		Workers:            o.Workers,
		ACP:                o.ACP,
		MaxActive:          o.MaxActive,
		MaxActivePerTenant: o.MaxActivePerTenant,
		MaxQueuedPerTenant: o.MaxQueuedPerTenant,
		Retries:            o.Retries,
		RetryBackoff:       o.RetryBackoff,
		Quantum:            o.FairnessQuantum,
		DisableReplan:      o.DisableReplan,
	}
	if o.Telemetry != nil {
		so.Telemetry = o.Telemetry.Bus()
	}
	return service.New(so)
}
