package service

import (
	"fmt"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// fleetWorker is one fleet goroutine's side of the paper's slave loop —
// request, compute, piggy-back (§3.1) — run against whichever job's
// master the arbiter picks: the request it reuses, and the results of
// its last batch until they are delivered.
type fleetWorker struct {
	s     *Scheduler
	id    int
	scale int // WorkScale: each iteration's body runs this many times
	req   wire.Request
	rep   wire.Reply

	held *attempt      // whose results recs holds (nil: none)
	recs []wire.Record // one run per stretch of consecutive iterations
	comp float64       // kernel seconds those results took
	now  time.Time     // the latest clock reading, which the arbiter's deadlines are checked at

	owed  *Job // the job of the last grant, not charged yet (nil: none)
	iters int  // the iterations in that grant
}

// runWorker is one fleet goroutine's lifetime: have the arbiter pick a
// job, run a batch of it, repeat until the scheduler closes. A worker
// delivers what it holds before it turns to another job or sleeps, so
// no job waits on results a worker keeps. Join evidence is the
// scheduler WaitGroup.
func (s *Scheduler) runWorker(id int) {
	defer s.wg.Done()
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.WorkerJoined, Worker: id,
		At: s.bus.Now(),
	})
	w := &fleetWorker{s: s, id: id, scale: max(1, s.opts.Workers[id].WorkScale), now: time.Now()}
	for {
		att, gen, ok := s.pick(w.now, w.owed, w.iters)
		w.owed = nil
		if !ok {
			return
		}
		if w.held != nil && w.held != att {
			w.request(w.held, 0) // a delivery: results booked, nothing asked
		}
		if att == nil {
			if !s.idle(gen) {
				return
			}
			w.now = time.Now()
			continue
		}
		if w.request(att, s.window) {
			w.run(att)
		}
	}
}

// request sends one prefetch to att's master — never a plain request,
// which could park the worker there while other jobs want it — carrying
// the results the worker holds for att, and asks for up to credits
// chunks; 0 makes it a delivery. It reports whether a batch came back,
// which the next pick charges to the job. A Stop completes the job, if
// nothing ended it first; a master error fails the attempt.
//
//lint:loopsched-hotpath
func (w *fleetWorker) request(att *attempt, credits int) bool {
	s, j := w.s, att.job
	w.req = wire.Request{Worker: w.id, ACP: s.acpNow(w.id), Prefetch: true, Credits: credits}
	if w.held == att {
		w.req.Results, w.req.CompSeconds = w.recs, w.comp
	}
	w.held, w.recs, w.comp = nil, w.recs[:0], 0
	if j.att.Load() != att || j.State() != StateRunning {
		return false // what the attempt's master is owed is moot now
	}
	if err := att.links[w.id].Call(&w.req, &w.rep); err != nil {
		s.failAttempt(att, fmt.Errorf("service: job %d: %w", j.id, err))
		return false
	}
	if w.rep.Stop {
		s.completeJob(att)
		return false
	}
	iters := 0
	for _, g := range w.rep.Grants {
		iters += g.Size
	}
	if iters == 0 {
		return false // drained since the pick
	}
	w.owed, w.iters = j, iters
	return true
}

// run executes the batch the last request was granted, emulating the
// worker's WorkScale exactly as exec.Worker does, and holds its results
// for the next request. The clock is read as the batch starts and as it
// ends — with a telemetry bus also as each chunk closes, for its
// ChunkCompleted. A chunk of an attempt that was cancelled, failed or
// requeued meanwhile is not started, and the batch's results are
// dropped. A panicking body is the fleet's worker-death signal: the
// attempt is aborted and the job heads to the fail-queue (or fails
// terminally once its retry budget is spent).
//
//lint:loopsched-hotpath
func (w *fleetWorker) run(att *attempt) {
	j, bus := att.job, w.s.bus
	start := time.Now()
	at := bus.Now()
	for _, g := range w.rep.Grants {
		if j.att.Load() != att || j.State() != StateRunning {
			w.recs = w.recs[:0]
			return
		}
		if err := runChunk(j.spec.Body, g, w.scale); err != nil {
			w.recs = w.recs[:0]
			w.s.failAttempt(att, fmt.Errorf("service: job %d: %w", j.id, err))
			return
		}
		if k := len(w.recs) - 1; k >= 0 && w.recs[k].Index+w.recs[k].Count == g.Start {
			w.recs[k].Count += g.Size
		} else {
			w.recs = append(w.recs, wire.Record{Index: g.Start, Count: g.Size})
		}
		if bus != nil {
			now := bus.Now()
			bus.Publish(telemetry.Event{
				Kind: telemetry.ChunkCompleted, Worker: w.id, Job: j.id, Tenant: j.tenant.id,
				Start: g.Start, Size: g.Size, ACP: w.req.ACP, Span: telemetry.SpanID(j.id, g.Start),
				At: now, Seconds: now - at,
			})
			at = now
		}
	}
	w.now = time.Now()
	w.held, w.comp = att, w.now.Sub(start).Seconds()
}

// acpNow probes worker id's current ACP.
func (s *Scheduler) acpNow(id int) int {
	return s.opts.ACP.ACP(s.virtual[id], 1+s.opts.Workers[id].Load())
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

// idle sleeps until the generation moves past gen (an admission, a
// finish) and reports false once the scheduler is closed.
func (s *Scheduler) idle(gen uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.gen == gen && !s.closed {
		s.cond.Wait()
	}
	return !s.closed
}

// completeJob finishes the job: a Stop answered a request to its
// current attempt's master, and only the master's own end can have sent
// it while the attempt is still current and the job running.
func (s *Scheduler) completeJob(att *attempt) {
	j := att.job
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.att.Load() != att || j.State() != StateRunning {
		return
	}
	s.finishLocked(j, StateSucceeded, nil)
}

// failAttempt aborts the attempt after a body panic and either parks
// the job on the fail-queue for a retry or fails it terminally.
func (s *Scheduler) failAttempt(att *attempt, ferr error) {
	j := att.job
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.att.Load() != att || j.State() != StateRunning {
		return // another worker already failed or finished this attempt
	}
	budget := j.spec.retryBudget(s.opts.Retries)
	if j.attempts > budget {
		s.finishLocked(j, StateFailed, ferr)
		return
	}
	// Requeue: the job goes back to Queued with exponential backoff. The
	// cancelled master grants nothing more, and it stays in the job's
	// book for Granted and ChunksGranted.
	att.m.Cancel(ferr)
	j.past = append(j.past, att.m)
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
