// Package service is the long-lived multi-tenant scheduler: one shared
// worker fleet serving a stream of loop jobs. Where Run executes a
// single loop and tears its workers down, a Scheduler keeps the fleet
// alive — each job attempt an internal/exec Master, which every fleet
// worker reaches over a memory link — and admits JobSpecs continuously:
// an admission queue enforces per-tenant quotas, an arbiter picks the
// job each worker's next request goes to by strict priority and
// weighted deficit-round-robin, and a fail-queue re-admits jobs whose
// attempt died (a panicking body, the stand-in for a dying worker).
// Preemption only ever withholds not-yet-granted chunks — a chunk a
// worker has started always runs to completion — so every job that
// succeeds executed each of its iterations exactly once.
package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// Sentinel errors returned by Submit, Wait and Report.
var (
	// ErrClosed is returned by Submit after Close, and reported by
	// jobs the closing scheduler cancelled.
	ErrClosed = errors.New("service: scheduler closed")
	// ErrDraining is returned by Submit after Drain began.
	ErrDraining = errors.New("service: scheduler draining")
	// ErrCancelled is reported by jobs cancelled via Job.Cancel.
	ErrCancelled = errors.New("service: job cancelled")
	// ErrQueueFull is returned by Submit when the tenant's admission
	// queue quota is exhausted.
	ErrQueueFull = errors.New("service: tenant admission queue full")
)

// DefaultQuantum is the deficit-round-robin replenishment per unit of
// fairness weight per round, in iterations, when Options.Quantum is
// unset.
const DefaultQuantum = 64

// DefaultRetryBackoff is the fail-queue's base backoff when
// Options.RetryBackoff is unset; attempt k waits backoff << (k-1).
const DefaultRetryBackoff = 2 * time.Millisecond

// Options configures New.
type Options struct {
	// Workers is the shared fleet: one long-lived goroutine per entry,
	// heterogeneity emulated by WorkScale exactly as by exec.Worker.
	Workers []*exec.WorkerSpec
	// ACP is the availability model distributed schemes report with.
	ACP acp.Model
	// MaxActive caps concurrently running jobs fleet-wide (0 = no cap).
	MaxActive int
	// MaxActivePerTenant caps concurrently running jobs per tenant
	// (0 = no cap).
	MaxActivePerTenant int
	// MaxQueuedPerTenant caps jobs waiting for admission per tenant;
	// Submit fails with ErrQueueFull beyond it (0 = no cap).
	MaxQueuedPerTenant int
	// Retries is the default re-admission budget for jobs whose
	// attempt fails (JobSpec.Retries == 0 inherits it).
	Retries int
	// RetryBackoff is the fail-queue's base delay before re-admitting
	// a failed job (DefaultRetryBackoff when <= 0).
	RetryBackoff time.Duration
	// Quantum is the DRR replenishment per weight unit per round, in
	// iterations (DefaultQuantum when <= 0).
	Quantum int
	// DisableReplan turns off the majority re-plan in every job.
	DisableReplan bool
	// Telemetry, when non-nil, receives job lifecycle and chunk
	// events, tagged with job and tenant ids.
	Telemetry *telemetry.Bus
}

// tenant is one named tenant's admission accounting.
type tenant struct {
	id     int
	name   string
	queued int // jobs waiting (admission queue + fail-queue)
	active int // jobs running on the fleet
}

// Scheduler owns a worker fleet and schedules a stream of jobs on it.
// Create with New, feed with Submit, stop with Close.
type Scheduler struct {
	opts    Options
	p       int
	quantum int
	virtual []float64 // paper-style virtual powers, slowest = 1
	bus     *telemetry.Bus

	mu          sync.Mutex
	cond        *sync.Cond // workers idle-wait for gen to move
	gen         uint64     // bumped whenever new work may exist
	pending     []*Job     // admission queue, submit order
	failq       []*Job     // failed attempts awaiting retryAt
	active      []*Job     // running jobs, priority-descending, stable
	tenants     map[string]*tenant
	nextJob     int
	nextTenant  int
	queueDepth  int // jobs in StateQueued (pending + failq, minus lazily removed)
	outstanding int // submitted jobs not yet terminal
	draining    bool
	closed      bool
	drainDone   chan struct{} // closed when draining && outstanding == 0

	admitCh chan struct{} // kicks the admission loop
	stop    chan struct{} // closed by Close; joins the admission loop
	wg      sync.WaitGroup
}

// Stats is a point-in-time summary of the scheduler's queues.
type Stats struct {
	Queued      int // jobs waiting for admission (incl. fail-queue)
	Active      int // jobs running on the fleet
	Outstanding int // submitted jobs not yet terminal
	Tenants     int // tenants seen
}

// New starts the fleet (one goroutine per worker plus the admission
// loop) and returns the ready scheduler. Close releases everything.
func New(o Options) (*Scheduler, error) {
	if len(o.Workers) == 0 {
		return nil, fmt.Errorf("service: Options.Workers is required")
	}
	p := len(o.Workers)
	quantum := o.Quantum
	if quantum <= 0 {
		quantum = DefaultQuantum
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = DefaultRetryBackoff
	}
	s := &Scheduler{
		opts:    o,
		p:       p,
		quantum: quantum,
		virtual: exec.VirtualPowers(o.Workers),
		bus:     o.Telemetry,
		tenants: make(map[string]*tenant),
		admitCh: make(chan struct{}, 1),
		stop:    make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.bus.BeginRun(telemetry.RunMeta{Backend: "service", Workers: p})
	s.wg.Add(1)
	go s.admissionLoop()
	for i := 0; i < p; i++ {
		s.wg.Add(1)
		go s.runWorker(i)
	}
	return s, nil
}

// Submit queues a job for admission. The returned Job is live
// immediately: Wait blocks until it reaches a terminal state, Cancel
// withdraws it. Submit fails fast on a bad spec (the same validation
// Run applies), a closed or draining scheduler, or an exhausted
// per-tenant queue quota.
func (s *Scheduler) Submit(ctx context.Context, spec JobSpec) (*Job, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if s.draining {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	t := s.tenantLocked(spec.Tenant)
	if q := s.opts.MaxQueuedPerTenant; q > 0 && t.queued >= q {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: tenant %q already has %d jobs queued", ErrQueueFull, t.name, t.queued)
	}
	s.nextJob++
	j := &Job{
		s:         s,
		id:        s.nextJob,
		spec:      spec,
		tenant:    t,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	j.state.Store(int32(StateQueued))
	t.queued++
	s.queueDepth++
	s.outstanding++
	s.pending = append(s.pending, j)
	meta := telemetry.JobMeta{
		Job:        j.id,
		Tenant:     t.id,
		TenantName: t.name,
		Scheme:     spec.Scheme.Name(),
		Workload:   spec.Workload.Name(),
		Iterations: spec.Workload.Len(),
		Priority:   spec.Priority,
		Weight:     j.weight(),
	}
	s.mu.Unlock()

	// BeginJob flushes the bus, so it must not run under s.mu.
	s.bus.BeginJob(meta)
	e := s.jobEvent(telemetry.JobSubmitted, j)
	e.Size = spec.Workload.Len()
	s.bus.Publish(e)
	s.publishDepth()
	s.kickAdmit()
	return j, nil
}

// Drain stops admission of new jobs (Submit fails with ErrDraining)
// and blocks until every outstanding job reaches a terminal state or
// ctx is done. Draining is permanent; follow with Close.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.draining = true
	if s.outstanding == 0 {
		s.mu.Unlock()
		return nil
	}
	if s.drainDone == nil {
		s.drainDone = make(chan struct{})
	}
	ch := s.drainDone
	s.mu.Unlock()
	select {
	case <-ch:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close cancels every non-terminal job (they report ErrClosed), stops
// the fleet and joins every goroutine the scheduler started. Close is
// idempotent and never blocks on in-flight chunk bodies longer than
// they take to finish: granted-but-unstarted chunks are discarded.
func (s *Scheduler) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	jobs := make([]*Job, 0, len(s.pending)+len(s.failq)+len(s.active))
	jobs = append(jobs, s.pending...)
	jobs = append(jobs, s.failq...)
	jobs = append(jobs, s.active...)
	for _, j := range jobs {
		if !j.State().Terminal() {
			s.finishLocked(j, StateCancelled, ErrClosed)
		}
	}
	s.closed = true
	close(s.stop)
	s.cond.Broadcast()
	s.mu.Unlock()
	s.wg.Wait()
	s.publishDepth()
	return nil
}

// Stats returns a point-in-time queue summary.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Queued:      s.queueDepth,
		Active:      len(s.active),
		Outstanding: s.outstanding,
		Tenants:     len(s.tenants),
	}
}

// Workers returns the fleet size.
func (s *Scheduler) Workers() int { return s.p }

// tenantLocked returns (creating if needed) the named tenant. Tenant
// ids start at 1 so id 0 stays "untagged single run" in telemetry.
// Callers hold s.mu.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if name == "" {
		name = "default"
	}
	t := s.tenants[name]
	if t == nil {
		s.nextTenant++
		t = &tenant{id: s.nextTenant, name: name}
		s.tenants[name] = t
	}
	return t
}

// jobEvent returns an event tagged with the job's identity.
func (s *Scheduler) jobEvent(kind telemetry.Kind, j *Job) telemetry.Event {
	return telemetry.Event{
		Kind: kind, Job: j.id, Tenant: j.tenant.id,
		At: s.bus.Now(),
	}
}

// publishDepth samples the admission-queue depth gauge.
func (s *Scheduler) publishDepth() {
	s.mu.Lock()
	depth := s.queueDepth
	s.mu.Unlock()
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.JobQueueDepth, Size: depth,
		At: s.bus.Now(),
	})
}

// kickAdmit nudges the admission loop without blocking.
func (s *Scheduler) kickAdmit() {
	select {
	case s.admitCh <- struct{}{}:
	default:
	}
}

// bumpLocked wakes idle workers: new work may exist. Callers hold s.mu.
func (s *Scheduler) bumpLocked() {
	s.gen++
	s.cond.Broadcast()
}

// admissionLoop is the scheduler's long-lived admission goroutine: it
// moves due fail-queue entries back into the queue, admits whatever
// quota allows, and sleeps until kicked (a submit, a finished job
// freeing quota) or the earliest retry falls due. Close joins it via
// the stop channel.
func (s *Scheduler) admissionLoop() {
	defer s.wg.Done()
	for {
		s.admit()
		var tc <-chan time.Time
		var timer *time.Timer
		if d, ok := s.nextRetry(); ok {
			timer = time.NewTimer(d)
			tc = timer.C
		}
		select {
		case <-s.stop:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-s.admitCh:
		case <-tc:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// nextRetry reports the wait until the earliest fail-queue retry.
func (s *Scheduler) nextRetry() (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var earliest time.Time
	for _, j := range s.failq {
		if j.State() != StateQueued {
			continue
		}
		if earliest.IsZero() || j.retryAt.Before(earliest) {
			earliest = j.retryAt
		}
	}
	if earliest.IsZero() {
		return 0, false
	}
	d := time.Until(earliest)
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d, true
}

// admit runs one admission pass: due retries rejoin the queue, then
// every queued job the quotas allow starts on the fleet. Quota-blocked
// jobs do not block jobs behind them (skip-ahead), so one tenant's
// backlog never starves another tenant's admission.
func (s *Scheduler) admit() {
	now := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	// Fail-queue entries whose backoff elapsed rejoin the queue.
	rest := s.failq[:0]
	for _, j := range s.failq {
		if j.State() != StateQueued {
			continue // cancelled while parked; finishLocked already accounted it
		}
		if j.retryAt.After(now) {
			rest = append(rest, j)
			continue
		}
		s.pending = append(s.pending, j)
	}
	s.failq = rest

	keep := s.pending[:0]
	for _, j := range s.pending {
		if j.State() != StateQueued {
			continue // cancelled while queued; drop lazily
		}
		if dl := j.spec.Deadline; !dl.IsZero() && now.After(dl) {
			s.finishLocked(j, StateFailed, fmt.Errorf("service: job %d missed its deadline before admission: %w", j.id, context.DeadlineExceeded))
			continue
		}
		if !s.admissibleLocked(j) {
			keep = append(keep, j)
			continue
		}
		if err := s.startLocked(j, now); err != nil {
			// An unschedulable spec (the policy cannot be built) is a
			// permanent failure; retrying cannot fix it.
			s.finishLocked(j, StateFailed, err)
		}
	}
	s.pending = keep
	s.mu.Unlock()
	s.publishDepth()
}

// admissibleLocked applies the concurrency quotas. Callers hold s.mu.
func (s *Scheduler) admissibleLocked(j *Job) bool {
	if m := s.opts.MaxActive; m > 0 && len(s.active) >= m {
		return false
	}
	if m := s.opts.MaxActivePerTenant; m > 0 && j.tenant.active >= m {
		return false
	}
	return true
}

// startLocked begins one attempt: it builds the job's master, planned
// from the fleet's current ACPs, links every fleet worker to it and
// moves the job into the active set. Callers hold s.mu.
func (s *Scheduler) startLocked(j *Job, now time.Time) error {
	dist := sched.Distributed(j.spec.Scheme)
	initACP := make([]int, s.p)
	for i := range initACP {
		initACP[i] = 1
		if dist {
			initACP[i] = s.acpNow(i)
		}
	}
	m, err := exec.New(exec.Config{
		Scheme:     j.spec.Scheme,
		Iterations: j.spec.Workload.Len(),
		Workers:    s.p,
		Powers:     s.virtual,
		NoReplan:   s.opts.DisableReplan,
		Telemetry:  s.bus,
		Job:        j.id,
		Tenant:     j.tenant.id,
		InitACP:    initACP,
	})
	if err != nil {
		return err
	}
	att := &attempt{job: j, m: m, links: make([]exec.Link, s.p), paces: make([]pace, s.p)}
	for i := range att.links {
		att.links[i] = m.Link()
	}
	j.att.Store(att)
	j.attempts++
	j.started = now
	j.deficit = 0
	j.tenant.queued--
	s.queueDepth--
	j.tenant.active++
	j.state.Store(int32(StateRunning))
	s.insertActiveLocked(j)
	e := s.jobEvent(telemetry.JobAdmitted, j)
	e.Size = j.spec.Workload.Len()
	e.Seconds = now.Sub(j.submitted).Seconds()
	s.bus.Publish(e)
	s.bumpLocked()
	return nil
}

// insertActiveLocked keeps active sorted by priority descending,
// stable in admission order within a priority class. Callers hold s.mu.
func (s *Scheduler) insertActiveLocked(j *Job) {
	i := len(s.active)
	for i > 0 && s.active[i-1].spec.Priority < j.spec.Priority {
		i--
	}
	s.active = append(s.active, nil)
	copy(s.active[i+1:], s.active[i:])
	s.active[i] = j
}

// removeActiveLocked drops j from the active set. Callers hold s.mu.
func (s *Scheduler) removeActiveLocked(j *Job) {
	for i, have := range s.active {
		if have == j {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// finishLocked is the single terminal transition: it snapshots the
// report, adjusts tenant accounting for the state the job leaves,
// publishes the lifecycle event and releases every waiter. Callers
// hold s.mu and guarantee j is not already terminal.
func (s *Scheduler) finishLocked(j *Job, final State, jerr error) {
	switch j.State() {
	case StateQueued:
		j.tenant.queued--
		s.queueDepth--
	case StateRunning:
		j.tenant.active--
		s.removeActiveLocked(j)
		if att := j.att.Load(); att != nil {
			// Cancel first, then snapshot: the master grants nothing
			// after Cancel returns, so the report and the grant book
			// see every grant that will ever happen. A master that
			// finished keeps that outcome.
			att.m.Cancel(jerr)
		}
	}
	j.report = s.reportLocked(j)
	j.err = jerr
	j.state.Store(int32(final))
	s.outstanding--
	if s.draining && s.outstanding == 0 && s.drainDone != nil {
		close(s.drainDone)
		s.drainDone = nil
	}
	var kind telemetry.Kind
	switch final {
	case StateSucceeded:
		kind = telemetry.JobFinished
	case StateFailed:
		kind = telemetry.JobFailed
	default:
		kind = telemetry.JobCancelled
	}
	e := s.jobEvent(kind, j)
	e.Size = j.report.Iterations
	if !j.started.IsZero() {
		e.Seconds = time.Since(j.started).Seconds()
	}
	s.bus.Publish(e)
	close(j.done)
	s.kickAdmit() // a slot may have freed
	s.bumpLocked()
}

// reportLocked builds the job's paper-style report from the current
// attempt's master. Callers hold s.mu.
func (s *Scheduler) reportLocked(j *Job) Report {
	rep := Report{Scheme: j.spec.Scheme.Name(), Workers: s.p}
	if att := j.att.Load(); att != nil {
		rep = att.m.Report()
	}
	rep.Workload = j.spec.Workload.Name()
	return rep
}
