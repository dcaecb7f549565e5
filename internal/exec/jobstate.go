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

// JobConfig configures a JobState, the deque core the benchmark's
// exec.refill_* probes drive.
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
	// Powers are the workers' static virtual powers, which the
	// static-weight schemes (WF, WS) split by; nil weighs them equally.
	Powers []float64
	// DisableReplan turns off the majority re-plan.
	DisableReplan bool
	// Telemetry receives the job's events; nil is inert.
	Telemetry *telemetry.Bus
	// Ledger is accepted and ignored: every grant draws from the job's
	// policy under the master's lock. An unknown mode is still an error.
	Ledger LedgerMode
}

// JobState is a work-stealing deque core: one job's per-worker deques
// over a dispenser. No runtime uses it; the benchmark's exec.refill_ns
// probes drive its Pop → Refill → Complete cycle.
type JobState struct {
	bus *telemetry.Bus

	deques  []*steal.Deque
	scratch [][]sched.Run // per-worker refill buffers

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
		scratch: make([][]sched.Run, p),
		d: dispense.New(dispense.Config{
			Scheme:   cfg.Scheme,
			Workers:  p,
			Powers:   cfg.Powers,
			NoReplan: cfg.DisableReplan,
		}),
	}
	for i := 0; i < p; i++ {
		s.deques[i] = steal.NewDeque(window)
		s.scratch[i] = make([]sched.Run, 0, window)
		s.d.Report(i, 1) // every worker reports ACP 1 until its first request
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
	chunks, iters := 0, 0
	var first sched.Assignment
	for _, r := range batch {
		for i := range r.Count {
			a := r.Chunk(i)
			if chunks == 0 {
				first = a
			} else {
				s.deques[worker].Push(a) // cannot fail: deque empty, cap >= window
			}
			chunks, iters = chunks+1, iters+a.Size
			now := s.bus.Now()
			s.bus.Publish(telemetry.Event{
				Kind: telemetry.ChunkGranted, Worker: worker, Start: a.Start, Size: a.Size, ACP: acpNow,
				Span: telemetry.SpanID(0, a.Start), At: now, Seconds: now - reqAt,
			})
		}
	}
	s.mu.Unlock()

	if chunks == 0 {
		return sched.Assignment{}, 0, false
	}
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.DequeRefilled, Worker: worker, Start: first.Start, Size: chunks, ACP: acpNow, At: s.bus.Now(),
	})
	return first, iters, true
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
