package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"loopsched/internal/acp"
	"loopsched/internal/ledger"
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
	// DisableReplan turns off the majority re-plan.
	DisableReplan bool
	// Telemetry receives the job's chunk events; nil is inert.
	Telemetry *telemetry.Bus
	// Job and Tenant tag every event the job publishes, so a shared
	// bus can attribute chunks per job and per tenant. Zero means
	// untagged (single-run execution).
	Job, Tenant int
	// Ledger requests the scheduling-step ledger for refills: when the
	// scheme is step-deterministic, a refill becomes one fetch-and-add
	// on an atomic step counter plus table lookups — no refill mutex at
	// all. Empty uses DefaultLedger (the LOOPSCHED_LEDGER environment
	// variable); ineligible schemes silently keep the policy path.
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

// JobState is the fleet-shareable core of the work-stealing engine:
// one job's per-worker deques plus everything a master would keep
// private — the scheme policy, live/plan ACP, grant accounting —
// guarded by one amortised refill mutex. A single JobState backs a
// whole stealRun; a scheduler keeps many JobStates alive at once on
// one worker fleet, each worker holding one deque per job.
//
// Termination is masterless: drained flips when the policy runs dry
// (it can never un-dry — a re-plan covers only the remaining
// iterations, which is zero by then), after which granted is frozen;
// the job is finished once drained && completed == granted, i.e.
// every granted iteration has been executed by somebody.
type JobState struct {
	scheme        sched.Scheme
	w             workload.Workload
	dist          bool
	p             int
	disableReplan bool
	bus           *telemetry.Bus
	job, tenant   int

	deques   []*steal.Deque
	counters []steal.AtomicCounters
	scratch  [][]sched.Assignment // per-worker refill buffers
	compHist *hist.Sharded        // per-chunk compute latency

	waitHist *hist.Sharded // request-to-grant latency (shard = worker)

	// Scheduling-step ledger (JobConfig.Ledger): when armed, Refill
	// bypasses s.mu entirely — one fetch-and-add claims a window of
	// steps and the table maps each to its chunk. nil keeps the policy
	// path. ledgerChunks is the ledger's share of the chunk tally,
	// folded into Counts alongside the mu-guarded chunks.
	ledgerTab    *ledger.Table
	ledgerCtr    ledger.Local
	ledgerChunks atomic.Int64

	granted   atomic.Int64
	completed atomic.Int64
	drained   atomic.Bool
	aborted   atomic.Bool

	mu      sync.Mutex // guards everything below
	policy  sched.Policy
	liveACP []int
	planACP []int
	base    int
	chunks  int
	replans int
}

// NewJobState plans the job's first policy and allocates its deques.
func NewJobState(cfg JobConfig) (*JobState, error) {
	p := cfg.Workers
	window := cfg.Window
	if window <= 0 {
		window = DefaultStealWindow
	}
	s := &JobState{
		scheme:        cfg.Scheme,
		w:             cfg.Workload,
		dist:          sched.Distributed(cfg.Scheme),
		p:             p,
		disableReplan: cfg.DisableReplan,
		bus:           cfg.Telemetry,
		job:           cfg.Job,
		tenant:        cfg.Tenant,
		deques:        make([]*steal.Deque, p),
		counters:      make([]steal.AtomicCounters, p),
		scratch:       make([][]sched.Assignment, p),
		compHist:      hist.NewSharded(p),
		waitHist:      hist.NewSharded(p),
		liveACP:       make([]int, p),
		planACP:       make([]int, p),
	}
	for i := 0; i < p; i++ {
		s.deques[i] = steal.NewDeque(window)
		s.scratch[i] = make([]sched.Assignment, 0, window)
	}
	if s.dist {
		for i := 0; i < p; i++ {
			a := 1
			if i < len(cfg.InitACP) {
				a = cfg.InitACP[i]
			}
			s.liveACP[i] = a
		}
	}
	var err error
	s.policy, err = s.plan()
	if err != nil {
		return nil, err
	}
	mode, ok := cfg.Ledger.Normalize()
	if !ok {
		return nil, fmt.Errorf("exec: unknown ledger mode %q", cfg.Ledger)
	}
	if mode == LedgerOn {
		// Advisory: a build failure (ineligible scheme, over-long loop)
		// keeps the policy path, so "on" is always safe.
		if tab, err := ledger.Build(cfg.Scheme, sched.Config{Iterations: cfg.Workload.Len(), Workers: p}); err == nil {
			s.ledgerTab = tab
		}
	}
	return s, nil
}

// Workload returns the job's loop (for feedback cost lookups).
func (s *JobState) Workload() workload.Workload { return s.w }

// plan builds a policy over the remaining iterations, offset past what
// has already been granted. Caller holds s.mu (or is pre-spawn).
func (s *JobState) plan() (sched.Policy, error) {
	cfg := sched.Config{Iterations: s.w.Len() - s.base, Workers: s.p}
	if s.dist {
		powers := make([]float64, s.p)
		for i, a := range s.liveACP {
			if a < 1 {
				a = 1
			}
			powers[i] = float64(a)
		}
		cfg.Powers = powers
	}
	pol, err := s.scheme.NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	copy(s.planACP, s.liveACP)
	return sched.Offset(pol, s.base), nil
}

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

// Refill is the steal engine's stand-in for one master round-trip: it
// reports the worker's current ACP, applies any pending feedback,
// re-plans on majority ACP change, and pulls a batch of chunks from the
// policy: at most a window, and share-bounded (sched.BatchLimit) — the
// batch ends as soon as another chunk the size of the last one would
// carry its iteration total past the limit, so a worker never parks
// more than its share of what is left in its own deque. The policy
// cannot be asked for a chunk's size without granting it, hence the
// last size as the predictor: exact for the paper's non-increasing
// sequences, off by at most one chunk's growth otherwise. The first
// chunk is returned for immediate execution; the rest land in the
// worker's (empty — refill only runs after its own pop failed, and
// thieves never add) deque for this job.
// The int result is the number of iterations granted by this refill,
// which a fair-share arbiter charges against the job's credit budget.
func (s *JobState) Refill(worker, acpNow int, fbWork, fbElapsed float64) (sched.Assignment, int, bool) {
	if s.aborted.Load() {
		return sched.Assignment{}, 0, false
	}
	if s.ledgerTab != nil {
		return s.refillLedger(worker, acpNow)
	}
	c := &s.counters[worker]
	reqAt := s.bus.Now()
	req := s.event(telemetry.ChunkRequested, worker)
	req.ACP = acpNow
	req.At = reqAt
	s.bus.Publish(req)
	batch := s.scratch[worker][:0]
	window := cap(s.scratch[worker])
	iters := 0

	s.mu.Lock()
	if s.aborted.Load() {
		// Re-checked under the refill mutex: Abort followed by a
		// mutex-acquiring Counts snapshot therefore observes every
		// grant that will ever happen, so a cancelled job's report
		// reconciles exactly with its telemetry.
		s.mu.Unlock()
		return sched.Assignment{}, 0, false
	}
	s.liveACP[worker] = acpNow
	if fb, ok := s.policy.(sched.FeedbackPolicy); ok && fbElapsed > 0 {
		fb.Feedback(worker, fbWork, fbElapsed)
	}
	if s.dist && !s.disableReplan && acp.MajorityChanged(s.planACP, s.liveACP) {
		if p2, err2 := s.plan(); err2 == nil {
			s.policy = p2
			s.replans++
			e := s.event(telemetry.StageAdvanced, worker)
			e.At = s.bus.Now()
			s.bus.Publish(e)
		}
	}
	total := s.w.Len()
	limit := sched.BatchLimit(total-s.base, total, s.p)
	for len(batch) < window {
		a, ok := s.policy.Next(sched.Request{Worker: worker, ACP: float64(acpNow)})
		if !ok {
			s.drained.Store(true)
			break
		}
		s.base = a.End()
		s.chunks++
		s.granted.Add(int64(a.Size))
		iters += a.Size
		now := s.bus.Now()
		s.waitHist.Record(worker, now-reqAt)
		e := s.event(telemetry.ChunkGranted, worker)
		e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
		e.Span = telemetry.SpanID(s.job, a.Start)
		e.At, e.Seconds = now, now-reqAt
		s.bus.Publish(e)
		batch = append(batch, a)
		if iters+a.Size > limit {
			break // one more chunk like this one would pass the share
		}
	}
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

// refillLedger is Refill on the scheduling-step ledger: the table
// sizes the batch from where the counter stands (ledger.Table.Batch —
// the same share bound, exact here because the table knows every
// chunk's size), one fetch-and-add claims it, the table maps each step
// to its chunk, and nothing touches s.mu — p workers refilling
// concurrently contend on a single atomic instead of serialising
// through the policy lock. Feedback and re-planning don't apply: the
// ledger only arms for step-deterministic schemes, whose chunks ignore
// everything the master path would feed back.
//
// Cancellation here is best-effort where the mutex path is exact: a
// refill racing Abort may grant one final window. Those grants still
// publish their events, so telemetry reconciliation holds either way.
func (s *JobState) refillLedger(worker, acpNow int) (sched.Assignment, int, bool) {
	reqAt := s.bus.Now()
	req := s.event(telemetry.ChunkRequested, worker)
	req.ACP = acpNow
	req.At = reqAt
	s.bus.Publish(req)
	batch := s.scratch[worker][:0]
	iters := 0

	n := s.ledgerTab.Batch(s.ledgerCtr.Next(), cap(s.scratch[worker]))
	step, _ := s.ledgerCtr.FetchAdd(n)
	claimAt := s.bus.Now()
	fetch := s.event(telemetry.LedgerFetch, worker)
	fetch.Start = n
	fetch.At, fetch.Seconds = claimAt, claimAt-reqAt
	s.bus.Publish(fetch)
	for i := 0; i < n; i++ {
		a, ok := s.ledgerTab.Chunk(step + uint64(i))
		if !ok {
			// Steps past the table's end: the loop is fully claimed.
			// Over-claimed steps are harmlessly wasted — the counter
			// only ever moves forward.
			s.drained.Store(true)
			break
		}
		s.ledgerChunks.Add(1)
		s.granted.Add(int64(a.Size))
		iters += a.Size
		now := s.bus.Now()
		s.waitHist.Record(worker, now-reqAt)
		e := s.event(telemetry.ChunkGranted, worker)
		e.Start, e.Size, e.ACP = a.Start, a.Size, acpNow
		e.Span = telemetry.SpanID(s.job, a.Start)
		e.At, e.Seconds = now, now-reqAt
		s.bus.Publish(e)
		batch = append(batch, a)
	}
	if len(batch) == 0 {
		return sched.Assignment{}, 0, false
	}
	for _, a := range batch[1:] {
		s.deques[worker].Push(a) // cannot fail: deque empty, cap >= window
	}
	c := &s.counters[worker]
	c.Refills.Add(1)
	c.RefillChunks.Add(int64(len(batch)))
	e := s.event(telemetry.DequeRefilled, worker)
	e.Start, e.Size, e.ACP = batch[0].Start, len(batch), acpNow
	e.At = s.bus.Now()
	s.bus.Publish(e)
	return batch[0], iters, true
}

// LedgerActive reports whether refills draw from the scheduling-step
// ledger instead of the mutex-guarded policy.
func (s *JobState) LedgerActive() bool { return s.ledgerTab != nil }

// Feedback applies one completed chunk's measured cost to the policy,
// for schedulers whose workers interleave many jobs and cannot carry
// feedback to the next refill of the same job.
func (s *JobState) Feedback(worker int, work, elapsed float64) {
	if elapsed <= 0 {
		return
	}
	s.mu.Lock()
	if fb, ok := s.policy.(sched.FeedbackPolicy); ok {
		fb.Feedback(worker, work, elapsed)
	}
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
	return s.drained.Load() && done >= s.granted.Load()
}

// Latency snapshots the job's request-to-grant and per-chunk compute
// latency histograms.
func (s *JobState) Latency() (wait, comp hist.Snapshot) {
	return s.waitHist.Snapshot(), s.compHist.Snapshot()
}

// Abort stops the job: no further refills will grant work. Chunks
// already granted but still queued in deques become stale — the owner
// discards them — so only the chunk each worker is currently executing
// runs to completion (preemption never splits a granted chunk).
func (s *JobState) Abort() {
	s.aborted.Store(true)
	s.drained.Store(true)
}

// Drained reports whether the policy has run dry (or the job was
// aborted): no refill will ever grant more work.
func (s *JobState) Drained() bool { return s.drained.Load() }

// Finished reports whether the job is complete: the policy is dry and
// every granted iteration has been executed.
func (s *JobState) Finished() bool {
	return s.drained.Load() && s.completed.Load() >= s.granted.Load()
}

// Granted returns the iterations granted so far.
func (s *JobState) Granted() int64 { return s.granted.Load() }

// Completed returns the iterations executed so far.
func (s *JobState) Completed() int64 { return s.completed.Load() }

// Counts snapshots the job's chunk accounting.
func (s *JobState) Counts() JobCounts {
	s.mu.Lock()
	chunks, replans := s.chunks, s.replans
	s.mu.Unlock()
	c := JobCounts{
		Chunks:    chunks + int(s.ledgerChunks.Load()),
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
