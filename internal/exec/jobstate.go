package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"loopsched/internal/dispense"
	"loopsched/internal/sched"
	"loopsched/internal/steal"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/workload"
)

// JobConfig configures one fleet-schedulable job for NewJobState.
type JobConfig struct {
	// Scheme is the self-scheduling scheme the job's chunks come from.
	Scheme sched.Scheme
	// Workload is the job's loop.
	Workload workload.Workload
	// Workers is the fleet size p: the job gets one deque per worker.
	Workers int
	// Window caps the refill batch (DefaultStealWindow when <= 0); how
	// many chunks a refill actually takes is share-bounded, see Refill.
	Window int
	// InitACP seeds the per-worker ACP figures distributed schemes
	// plan with (the paper's step 1(a) gather). nil means every
	// worker reports ACP 1 until its first refill.
	InitACP []int
	// Powers are the workers' static virtual powers, which the
	// static-weight schemes (WF, WS) split by; nil weighs them equally.
	Powers []float64
	// DisableReplan turns off the majority re-plan.
	DisableReplan bool
	// Telemetry receives the job's chunk events; nil is inert.
	Telemetry *telemetry.Bus
	// Job and Tenant tag every event the job publishes, so a shared
	// bus can attribute chunks per job and per tenant. Zero means
	// untagged (single-run execution).
	Job, Tenant int
	// Ledger is accepted and ignored: every refill draws from the job's
	// policy under its mutex. An unknown mode is still an error.
	Ledger LedgerMode
}

// JobCounts is a point-in-time snapshot of a job's chunk accounting.
type JobCounts struct {
	Chunks    int   // chunks granted by the policy
	Replans   int   // majority re-plans taken
	Granted   int64 // iterations granted
	Completed int64 // iterations executed
	Steals    int64 // chunks moved between workers
}

// DefaultStealWindow is the refill batch cap when JobConfig.Window is
// unset: one trip to the policy under the refill lock yields up to this
// many chunks (fewer while chunks are large against the worker's share
// of what is left, see JobState.Refill), one executed immediately and
// the rest parked in the worker's deque for later pops or steals.
// Larger windows amortise the lock but delay feedback and re-planning,
// which only see ACP at refill time. A worker with no window set asks
// its master for this many chunks on its first request, before it has
// measured a round trip to size its asks by, and on every request over
// the gob link, which grants one chunk per call (DESIGN.md §9).
const DefaultStealWindow = 8

// JobState is the fleet-shareable core of the work-stealing scheduler
// service (internal/service): one job's per-worker deques plus what a
// master would keep private — the dispenser (internal/dispense) and the
// grant accounting. A scheduler keeps many JobStates alive at once on
// one worker fleet, each worker holding one deque per job.
//
// Termination is masterless: the dispenser drains when its last chunk
// is handed out (it can never un-drain), after which granted is
// frozen; the job is finished once drained && completed == granted,
// i.e. every granted iteration has been executed by somebody. The
// dispenser reads drained as soon as the last chunk is drawn, which is
// before the refill that drew it has booked it, and Complete reads it
// without the refill mutex — so granted is frozen only once no refill is
// between its draw and its booking (granting).
type JobState struct {
	w           workload.Workload
	p           int
	bus         *telemetry.Bus
	job, tenant int

	deques   []*steal.Deque
	counters []steal.AtomicCounters
	scratch  [][]sched.Assignment // per-worker refill buffers
	compHist *hist.Sharded        // per-chunk compute latency

	waitHist *hist.Sharded // request-to-grant latency (shard = worker)

	// d hands out the job's chunks; every Refill draws from it under mu.
	d *dispense.Dispenser

	chunks    atomic.Int64
	granted   atomic.Int64
	granting  atomic.Int64 // refills that have drawn, not yet booked in granted
	completed atomic.Int64
	aborted   atomic.Bool

	mu sync.Mutex // serialises every use of d
}

// NewJobState plans the job's first policy and allocates its deques.
func NewJobState(cfg JobConfig) (*JobState, error) {
	p := cfg.Workers
	window := cfg.Window
	if window <= 0 {
		window = DefaultStealWindow
	}
	if _, ok := cfg.Ledger.Normalize(); !ok {
		return nil, fmt.Errorf("exec: unknown ledger mode %q", cfg.Ledger)
	}
	s := &JobState{
		w:        cfg.Workload,
		p:        p,
		bus:      cfg.Telemetry,
		job:      cfg.Job,
		tenant:   cfg.Tenant,
		deques:   make([]*steal.Deque, p),
		counters: make([]steal.AtomicCounters, p),
		scratch:  make([][]sched.Assignment, p),
		compHist: hist.NewSharded(p),
		waitHist: hist.NewSharded(p),
		d: dispense.New(dispense.Config{
			Scheme:   cfg.Scheme,
			Workers:  p,
			Powers:   cfg.Powers,
			NoReplan: cfg.DisableReplan,
		}),
	}
	for i := 0; i < p; i++ {
		s.deques[i] = steal.NewDeque(window)
		s.scratch[i] = make([]sched.Assignment, 0, window)
		a := 1
		if i < len(cfg.InitACP) {
			a = cfg.InitACP[i]
		}
		s.d.Report(i, a)
	}
	if err := s.d.Stage(0, cfg.Workload.Len()); err != nil {
		return nil, err
	}
	return s, nil
}

// Workload returns the job's loop (for feedback cost lookups).
func (s *JobState) Workload() workload.Workload { return s.w }

// event returns an Event pre-tagged with the job's identity.
//
//lint:loopsched-hotpath
func (s *JobState) event(kind telemetry.Kind, worker int) telemetry.Event {
	return telemetry.Event{
		Kind: kind, Worker: worker,
		Job: s.job, Tenant: s.tenant,
	}
}

// Pop takes the newest chunk from the worker's own deque for this job.
//
//lint:loopsched-hotpath
func (s *JobState) Pop(worker int) (sched.Assignment, bool) {
	a, ok := s.deques[worker].Pop()
	if ok {
		s.counters[worker].Pops.Add(1)
	}
	return a, ok
}

// Steal scans the other workers' deques starting just past the thief,
// taking the first (oldest) chunk it finds.
//
//lint:loopsched-hotpath
func (s *JobState) Steal(thief int) (sched.Assignment, bool) {
	c := &s.counters[thief]
	for off := 1; off < s.p; off++ {
		victim := (thief + off) % s.p
		if a, ok := s.deques[victim].Steal(); ok {
			c.Steals.Add(1)
			e := s.event(telemetry.ChunkStolen, thief)
			e.Shard = victim
			e.Start, e.Size = a.Start, a.Size
			e.At = s.bus.Now()
			s.bus.Publish(e)
			return a, true
		}
	}
	c.FailedSteals.Add(1)
	return sched.Assignment{}, false
}

// Refill is the deque worker's stand-in for one master round-trip: it
// applies any pending feedback and claims a batch from the dispenser —
// which records the worker's ACP, re-plans on a majority change and
// share-bounds the batch (at most a window, dispense.Claim). The first
// chunk is returned for immediate execution; the rest land in the
// worker's (empty — refill only runs after its own pop failed, and
// thieves never add) deque for this job.
// The int result is the number of iterations granted by this refill,
// which a fair-share arbiter charges against the job's credit budget.
func (s *JobState) Refill(worker, acpNow int, fbWork, fbElapsed float64) (sched.Assignment, int, bool) {
	if s.aborted.Load() {
		return sched.Assignment{}, 0, false
	}
	c := &s.counters[worker]
	reqAt := s.bus.Now()
	req := s.event(telemetry.ChunkRequested, worker)
	req.ACP = acpNow
	req.At = reqAt
	s.bus.Publish(req)

	s.mu.Lock()
	if s.aborted.Load() {
		// Re-checked under the refill mutex: Abort followed by a
		// mutex-acquiring Counts snapshot therefore observes every
		// grant that will ever happen, so a cancelled job's report
		// reconciles exactly with its telemetry.
		s.mu.Unlock()
		return sched.Assignment{}, 0, false
	}
	s.d.Feedback(worker, fbWork, fbElapsed)
	s.granting.Add(1)
	batch, replanned := s.d.Claim(worker, acpNow, cap(s.scratch[worker]), s.scratch[worker][:0])
	if replanned {
		e := s.event(telemetry.StageAdvanced, worker)
		e.At = s.bus.Now()
		s.bus.Publish(e)
	}
	iters := 0
	for _, a := range batch {
		s.granted.Add(int64(a.Size))
		iters += a.Size
		now := s.bus.Now()
		s.waitHist.Record(worker, now-reqAt)
		e := s.event(telemetry.ChunkGranted, worker)
		e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
		e.Span = telemetry.SpanID(s.job, a.Start)
		e.At, e.Seconds = now, now-reqAt
		s.bus.Publish(e)
	}
	s.chunks.Add(int64(len(batch)))
	s.granting.Add(-1)
	s.mu.Unlock()

	if len(batch) == 0 {
		return sched.Assignment{}, 0, false
	}
	for _, a := range batch[1:] {
		s.deques[worker].Push(a) // cannot fail: deque empty, cap >= window
	}
	c.Refills.Add(1)
	c.RefillChunks.Add(int64(len(batch)))
	e := s.event(telemetry.DequeRefilled, worker)
	e.Start, e.Size, e.ACP = batch[0].Start, len(batch), acpNow
	e.At = s.bus.Now()
	s.bus.Publish(e)
	return batch[0], iters, true
}

// Feedback applies one completed chunk's measured cost to the policy,
// for schedulers whose workers interleave many jobs and cannot carry
// feedback to the next refill of the same job.
func (s *JobState) Feedback(worker int, work, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	s.mu.Lock()
	s.d.Feedback(worker, work, elapsed)
	s.mu.Unlock()
}

// Complete records the execution of one chunk, publishes its
// completion event, and reports whether this completion finished the
// job (drained with every granted iteration executed). A false return
// does not mean the job is unfinished — the final grant's drained flag
// may land after the last completion — so schedulers must also check
// Finished after a refill comes back empty.
//
//lint:loopsched-hotpath
func (s *JobState) Complete(worker int, a sched.Assignment, acpNow int, seconds float64) bool {
	done := s.completed.Add(int64(a.Size))
	s.compHist.Record(worker, seconds)
	e := s.event(telemetry.ChunkCompleted, worker)
	e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
	e.Span = telemetry.SpanID(s.job, a.Start)
	e.At, e.Seconds = s.bus.Now(), seconds
	s.bus.Publish(e)
	return s.frozen() && done >= s.granted.Load()
}

// frozen reports whether granted has its final value: nothing is left
// to hand out and every refill that drew something has booked it. A
// refill that starts after the dispenser read dry draws nothing, so the
// order — drained first, then the refills in flight — is what makes the
// answer safe.
func (s *JobState) frozen() bool { return s.Drained() && s.granting.Load() == 0 }

// Latency snapshots the job's request-to-grant and per-chunk compute
// latency histograms.
func (s *JobState) Latency() (wait, comp hist.Snapshot) {
	return s.waitHist.Snapshot(), s.compHist.Snapshot()
}

// Abort stops the job: no further refills will grant work. Chunks
// already granted but still queued in deques become stale — the owner
// discards them — so only the chunk each worker is currently executing
// runs to completion (preemption never splits a granted chunk).
func (s *JobState) Abort() { s.aborted.Store(true) }

// Drained reports whether the policy has run dry (or the job was
// aborted): no refill will ever grant more work.
func (s *JobState) Drained() bool { return s.aborted.Load() || s.d.Drained() }

// Finished reports whether the job is complete: the policy is dry and
// every granted iteration has been executed.
func (s *JobState) Finished() bool {
	return s.frozen() && s.completed.Load() >= s.granted.Load()
}

// Granted returns the iterations granted so far.
func (s *JobState) Granted() int64 { return s.granted.Load() }

// Completed returns the iterations executed so far.
func (s *JobState) Completed() int64 { return s.completed.Load() }

// Counts snapshots the job's chunk accounting.
func (s *JobState) Counts() JobCounts {
	s.mu.Lock()
	chunks, replans := s.chunks.Load(), s.d.Replans()
	s.mu.Unlock()
	c := JobCounts{
		Chunks:    int(chunks),
		Replans:   replans,
		Granted:   s.granted.Load(),
		Completed: s.completed.Load(),
	}
	for i := range s.counters {
		c.Steals += s.counters[i].Steals.Load()
	}
	return c
}

// WorkerCounters snapshots worker i's deque counters for this job.
// Safe to call while the job is running: the live tally is atomic, so
// a scheduler polling a job mid-flight reads torn-free counts.
func (s *JobState) WorkerCounters(i int) steal.Counters { return s.counters[i].Snapshot() }
