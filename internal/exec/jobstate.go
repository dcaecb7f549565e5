package exec

import (
	"fmt"
	"sync"

	"loopsched/internal/dispense"
	"loopsched/internal/sched"
	"loopsched/internal/steal"
	"loopsched/internal/telemetry"
	"loopsched/internal/workload"
)

// JobConfig configures one job of a shared worker fleet: the master of a
// scheduler job's attempt (NewJobMaster), or a JobState.
type JobConfig struct {
	// Scheme is the self-scheduling scheme the job's chunks come from.
	Scheme sched.Scheme
	// Workload is the job's loop.
	Workload workload.Workload
	// Workers is the fleet size p.
	Workers int
	// Window is the credit window (DefaultStealWindow when <= 0): a
	// reply holds at most this many chunks, fewer while chunks are large
	// against the worker's share of what is left (dispense.Claim).
	Window int
	// InitACP seeds the per-worker ACP figures distributed schemes
	// plan with (the paper's step 1(a) gather). nil means every
	// worker reports ACP 1 until its first request.
	InitACP []int
	// Powers are the workers' static virtual powers, which the
	// static-weight schemes (WF, WS) split by; nil weighs them equally.
	Powers []float64
	// DisableReplan turns off the majority re-plan.
	DisableReplan bool
	// Telemetry receives the job's events; nil is inert.
	Telemetry *telemetry.Bus
	// Job and Tenant tag every event the job publishes, so a shared
	// bus can attribute chunks per job and per tenant. Zero means
	// untagged (single-run execution).
	Job, Tenant int
	// Ledger is accepted and ignored: every grant draws from the job's
	// policy under the master's lock. An unknown mode is still an error.
	Ledger LedgerMode
}

// DefaultStealWindow is the credit window of a fleet job when
// JobConfig.Window is unset: a reply carries at most this many chunks
// (fewer while chunks are large against the worker's share of what is
// left). A worker with no window set asks its master for this many
// chunks on its first request, before it has measured a round trip to
// size its asks by, and on every request over the gob link, which
// grants one chunk per call (DESIGN.md §9).
const DefaultStealWindow = 8

// NewJobMaster builds the master of one attempt of a scheduler job
// (internal/service): a flat master over cfg's loop and cfg.Workers
// fleet workers. Its plan is made here, from InitACP — the fleet's ACPs,
// so that the step-1(a) gather waits on no worker busy with another job
// — and it takes cfg's powers, window, re-plan switch and bus, tagging
// every event it publishes with cfg's job and tenant. The workers joined
// the fleet, not the job, so it publishes no WorkerJoined.
func NewJobMaster(cfg JobConfig) (*Master, error) {
	if _, ok := cfg.Ledger.Normalize(); !ok {
		return nil, fmt.Errorf("exec: unknown ledger mode %q", cfg.Ledger)
	}
	n := cfg.Workload.Len()
	m, err := newMaster(cfg.Scheme, n, cfg.Workers, 0, nil, &whole{n: n})
	if err != nil {
		return nil, err
	}
	m.bus, m.job, m.tenant = cfg.Telemetry, cfg.Job, cfg.Tenant
	if cfg.Window <= 0 {
		cfg.Window = DefaultStealWindow
	}
	m.SetWindow(cfg.Window)
	m.dcfg.Powers, m.dcfg.NoReplan = cfg.Powers, cfg.DisableReplan
	if err := m.rearm(); err != nil {
		return nil, err
	}
	for w := range m.slots {
		m.slots[w].joined = true
		a := 1
		if w < len(cfg.InitACP) {
			a = cfg.InitACP[w]
		}
		m.d.Report(w, a)
	}
	if m.restage(-1); m.err != nil {
		return nil, m.err
	}
	return m, nil
}

// JobState is a work-stealing deque core: one job's per-worker deques
// over a dispenser. No runtime uses it; the benchmark's exec.refill_ns
// probes drive its Pop → Refill → Complete cycle.
type JobState struct {
	bus *telemetry.Bus

	deques  []*steal.Deque
	scratch [][]sched.Assignment // per-worker refill buffers

	mu sync.Mutex          // serialises every use of d
	d  *dispense.Dispenser // hands out the job's chunks
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
		bus:     cfg.Telemetry,
		deques:  make([]*steal.Deque, p),
		scratch: make([][]sched.Assignment, p),
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

// Pop takes the newest chunk from the worker's own deque for this job.
//
//lint:loopsched-hotpath
func (s *JobState) Pop(worker int) (sched.Assignment, bool) {
	return s.deques[worker].Pop()
}

// Refill is one trip to the dispenser for an empty deque: it applies the
// feedback given and claims a share-bounded batch (at most a window,
// dispense.Claim), returning the first chunk for immediate execution and
// pushing the rest onto the worker's deque. The int result is the number
// of iterations the refill granted.
func (s *JobState) Refill(worker, acpNow int, fbWork, fbElapsed float64) (sched.Assignment, int, bool) {
	reqAt := s.bus.Now()
	s.bus.Publish(telemetry.Event{Kind: telemetry.ChunkRequested, Worker: worker, ACP: acpNow, At: reqAt})

	s.mu.Lock()
	s.d.Feedback(worker, fbWork, fbElapsed)
	batch, replanned := s.d.Claim(worker, acpNow, cap(s.scratch[worker]), s.scratch[worker][:0])
	if replanned {
		s.bus.Publish(telemetry.Event{Kind: telemetry.StageAdvanced, Worker: worker, At: s.bus.Now()})
	}
	iters := 0
	for _, a := range batch {
		iters += a.Size
		now := s.bus.Now()
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.ChunkGranted, Worker: worker, Start: a.Start, Size: a.Size, ACP: acpNow,
			Span: telemetry.SpanID(0, a.Start), At: now, Seconds: now - reqAt,
		})
	}
	s.mu.Unlock()

	if len(batch) == 0 {
		return sched.Assignment{}, 0, false
	}
	for _, a := range batch[1:] {
		s.deques[worker].Push(a) // cannot fail: deque empty, cap >= window
	}
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.DequeRefilled, Worker: worker, Start: batch[0].Start, Size: len(batch), ACP: acpNow, At: s.bus.Now(),
	})
	return batch[0], iters, true
}

// Complete publishes one executed chunk's completion event.
//
//lint:loopsched-hotpath
func (s *JobState) Complete(worker int, a sched.Assignment, acpNow int, seconds float64) {
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.ChunkCompleted, Worker: worker, Start: a.Start, Size: a.Size, ACP: acpNow,
		Span: telemetry.SpanID(0, a.Start), At: s.bus.Now(), Seconds: seconds,
	})
}
