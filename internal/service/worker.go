package service

import (
	"fmt"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/workload"
)

// jobRef pairs a job with the attempt observed when the active set was
// snapshotted, so a worker never pops from a newer attempt's deques
// under an older attempt's identity.
type jobRef struct {
	job *Job
	att *attempt
}

// runWorker is one fleet goroutine's lifetime: acquire a chunk, run
// it, repeat until the scheduler closes. Join evidence is the
// scheduler WaitGroup.
func (s *Scheduler) runWorker(id int) {
	defer s.wg.Done()
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.WorkerJoined, Worker: id,
		At: s.bus.Now(),
	})
	var cur *Job
	for {
		j, js, a, ok := s.next(id, cur)
		if !ok {
			return
		}
		cur = j
		s.execute(id, j, js, a)
	}
}

// next acquires the worker's next chunk: the last job's own deque
// first (locality), then every active job's own deque in priority
// order, then an arbitrated refill, then stealing from other workers.
// When the whole fleet looks empty it sleeps on the scheduler
// condition until the generation counter moves or the scheduler is
// closed (the false return).
func (s *Scheduler) next(id int, cur *Job) (*Job, *exec.JobState, sched.Assignment, bool) {
	for {
		if cur != nil && cur.State() == StateRunning {
			if att := cur.att.Load(); att != nil {
				if a, ok := att.js.Pop(id); ok {
					return cur, att.js, a, true
				}
			}
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return nil, nil, sched.Assignment{}, false
		}
		gen := s.gen
		refs := make([]jobRef, 0, len(s.active))
		for _, j := range s.active {
			if att := j.att.Load(); att != nil {
				refs = append(refs, jobRef{j, att})
			}
		}
		s.mu.Unlock()

		// Pass 1: pop our own deques, highest priority first.
		for _, r := range refs {
			if r.job == cur || r.job.State() != StateRunning {
				continue
			}
			if a, ok := r.att.js.Pop(id); ok {
				return r.job, r.att.js, a, true
			}
		}
		// Pass 2: spend one arbitrated refill credit.
		if j, js := s.pickRefill(); j != nil {
			a, granted, ok := js.Refill(id, s.acpNow(id), 0, 0)
			if granted > 0 {
				s.charge(j, granted)
			}
			if ok {
				// New chunks landed in our deque: wake sleepers to steal.
				s.mu.Lock()
				s.bumpLocked()
				s.mu.Unlock()
				return j, js, a, true
			}
			// The refill came back empty: the job just drained. If its
			// outstanding chunks are already executed this worker is
			// the one that observes completion.
			s.completeJob(j, js)
			continue
		}
		// Pass 3: steal queued chunks from other workers.
		for _, r := range refs {
			if r.job.State() != StateRunning {
				continue
			}
			if a, ok := r.att.js.Steal(id); ok {
				return r.job, r.att.js, a, true
			}
		}
		// Idle: sleep until the generation moves (new admission, a
		// refill, a finish) or the scheduler closes.
		s.mu.Lock()
		for s.gen == gen && !s.closed {
			s.cond.Wait()
		}
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, nil, sched.Assignment{}, false
		}
	}
}

// acpNow probes worker id's current ACP.
func (s *Scheduler) acpNow(id int) int {
	return s.opts.ACP.ACP(s.virtual[id], 1+s.opts.Workers[id].Load())
}

// execute runs one chunk of one job on this worker, emulating the
// worker's WorkScale exactly as exec.Worker does. A panicking body is
// the fleet's worker-death signal: the attempt is aborted and the job
// heads to the fail-queue (or fails terminally once its retry budget
// is spent). Chunks whose attempt was cancelled or requeued between
// acquisition and execution are discarded unrun.
func (s *Scheduler) execute(id int, j *Job, js *exec.JobState, a sched.Assignment) {
	att := j.att.Load()
	if att == nil || att.js != js || j.State() != StateRunning {
		return // stale chunk of a finished, cancelled or requeued attempt
	}
	scale := s.opts.Workers[id].WorkScale
	if scale < 1 {
		scale = 1
	}
	start := time.Now()
	err := runChunk(j.spec.Body, a, scale)
	elapsed := time.Since(start) // single reading: feedback == report accounting
	if err != nil {
		s.failAttempt(j, js, fmt.Errorf("service: job %d: %w", j.id, err))
		return
	}
	sec := elapsed.Seconds()
	att.comp[id].Add(int64(elapsed))
	att.iters[id].Add(int64(a.Size))
	js.Feedback(id, workload.RangeCost(js.Workload(), a.Start, a.End()), sec)
	if js.Complete(id, a, s.acpNow(id), sec) {
		s.completeJob(j, js)
	}
}

// runChunk executes one assignment, converting a body panic into an
// error so one job's crash never takes a fleet worker down.
func runChunk(body func(i int), a sched.Assignment, scale int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("body panicked on iteration range [%d,%d): %v", a.Start, a.End(), r)
		}
	}()
	for it := a.Start; it < a.End(); it++ {
		for rep := 0; rep < scale; rep++ {
			body(it)
		}
	}
	return nil
}

// completeJob finishes the job if its attempt has executed every
// granted iteration. Safe to call speculatively; only the current
// attempt of a still-running job can transition.
func (s *Scheduler) completeJob(j *Job, js *exec.JobState) {
	if !js.Finished() {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	att := j.att.Load()
	if att == nil || att.js != js || j.State() != StateRunning {
		return
	}
	s.finishLocked(j, StateSucceeded, nil)
}

// failAttempt aborts the current attempt after a body panic and either
// parks the job on the fail-queue for a retry or fails it terminally.
func (s *Scheduler) failAttempt(j *Job, js *exec.JobState, ferr error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	att := j.att.Load()
	if att == nil || att.js != js || j.State() != StateRunning {
		return // another worker already failed or finished this attempt
	}
	att.js.Abort()
	budget := j.spec.retryBudget(s.opts.Retries)
	if j.attempts > budget {
		s.finishLocked(j, StateFailed, ferr)
		return
	}
	// Requeue: the job goes back to Queued with exponential backoff.
	// The aborted attempt's grants fold into the cumulative totals
	// before the attempt pointer is dropped.
	counts := att.js.Counts()
	j.chunksTotal += counts.Chunks
	j.grantedTotal += counts.Granted
	j.att.Store(nil)
	j.tenant.active--
	s.removeActiveLocked(j)
	j.state.Store(int32(StateQueued))
	j.tenant.queued++
	s.queueDepth++
	shift := j.attempts - 1
	if shift > 10 {
		shift = 10
	}
	backoff := s.opts.RetryBackoff << shift
	if backoff > time.Second {
		backoff = time.Second
	}
	j.retryAt = time.Now().Add(backoff)
	s.failq = append(s.failq, j)
	e := s.jobEvent(telemetry.JobRequeued, j)
	e.Size = j.attempts
	s.bus.Publish(e)
	s.kickAdmit()
	s.bumpLocked()
}
