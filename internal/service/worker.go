package service

import (
	"fmt"
	"math"
	"time"

	"loopsched/internal/dispense"
	"loopsched/internal/exec"
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
	scale int // WorkScale: each iteration's body runs this many times (at least once)
	req   wire.Request
	rep   wire.Reply

	held *attempt      // whose results recs holds (nil: none)
	recs []wire.Record // one run per stretch of consecutive iterations
	comp float64       // kernel seconds those results took
	now  time.Time     // the latest clock reading, which the arbiter's deadlines are checked at
	trip float64       // seconds the latest request took: from the end of one batch to the start of the next

	allow float64 // iterations the arbiter allowed the last pick (0: no cap, the job is alone in its class)
	iters int     // the iterations in the last grant
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
	w := &fleetWorker{s: s, id: id, scale: s.opts.Workers[id].WorkScale, now: time.Now()}
	for {
		att, gen, ok := w.pick()
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
		if w.take(att) {
			w.run(att)
		}
	}
}

// pick has the arbiter pick the worker's next job (Scheduler.pick) and
// keeps the allowance the pick charged it.
func (w *fleetWorker) pick() (*attempt, uint64, bool) {
	att, allow, gen, ok := w.s.pick(w.now)
	w.allow = allow
	return att, gen, ok
}

// take asks att's master for a batch within the pick's allowance and, in
// a contested class, pays back to the job's deficit what of the
// allowance the grant did not use — or charges what it overdrew — as
// soon as the reply is in, so that the class's next pick sees it. It
// reports whether a batch came back.
func (w *fleetWorker) take(att *attempt) bool {
	ok := w.request(att, w.ask(att))
	if w.allow > 0 {
		w.s.settle(att.job, w.allow-float64(w.iters))
	}
	return ok
}

// fleetTrips is how many round trips of work a fleet worker asks for
// when no window is set. The worker does not prefetch, so every request
// idles it for a round trip; a batch worth fleetTrips of them bounds
// that idle time to about 1/(fleetTrips+1) of the worker's time, and a
// batch's predicted time to fleetTrips round trips plus one chunk, which
// is how long a higher-priority admission can wait on the worker
// (docs/SERVICE.md "Fairness and preemption").
const fleetTrips = 4

// pace is what one fleet worker measured of one attempt: the least
// request time before a batch there, a request's fixed part, and of its
// last batch there the seconds an iteration took — the rest of the
// request before it included — and the size of the chunk it ran last. A
// zero size means nothing is measured yet.
type pace struct {
	perIter float64
	size    int
	trip    float64
}

// ask sizes the worker's next request to att's master: a set window
// caps every reply and is asked for whole. Otherwise it is the depth
// rule, exec.Ask, with nothing held: fleetTrips times the least request
// time the worker measured on this attempt (or the latest, if less), in
// iterations at this worker's rate there. What a request takes beyond
// the least grows with the batch before it — the master books the
// results the request delivers — or comes of a preemption or a GC
// pause, and no deeper batch amortises it: the rate counts it as the
// batch's own time. Read from the latest request time and the body
// alone, one batch could size the next larger and larger. A rate
// measured on one attempt never sizes another's ask, so a new attempt
// starts unmeasured. In a contested class either ask is capped
// at the arbiter's allowance, rounded up to whole chunks of the size the
// worker last ran on the attempt — one chunk while it has run none — so
// that a grant overdraws the job's deficit by less than a chunk.
//
//lint:loopsched-hotpath
func (w *fleetWorker) ask(att *attempt) int {
	p := att.paces[w.id]
	n := w.s.opts.Window
	if n <= 0 {
		trip := 0.0 // nothing measured on this attempt yet
		if p.size > 0 {
			trip = w.trip
			if p.trip > 0 {
				trip = min(trip, p.trip)
			}
			trip = fleetTrips * trip / p.perIter
		}
		n = exec.Ask(trip, 0, p.size)
	}
	if w.allow > 0 {
		most := 1
		if p.size > 0 {
			most = int(math.Ceil(w.allow / float64(p.size)))
		}
		n = min(n, most)
	}
	return n
}

// request sends one prefetch to att's master — never a plain request,
// which could park the worker there while other jobs want it — carrying
// the results the worker holds for att, and asks for up to credits
// chunks; 0 makes it a delivery. It reports whether a batch came back,
// whose iterations it keeps in w.iters (0 when none did). A Stop
// completes the job, if nothing ended it first; a master error fails the
// attempt.
//
//lint:loopsched-hotpath
func (w *fleetWorker) request(att *attempt, credits int) bool {
	s, j := w.s, att.job
	w.iters = 0
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
	w.iters = iters
	return true
}

// run executes the batch the last request was granted through exec's
// compute step, a contiguous stretch per call (a chunk, with a telemetry
// bus, whose close the clock reads for its ChunkCompleted), and holds its
// results for the next request. The clock is read as the batch starts
// and as it ends: the first reading closes the request, whose time (since
// the last batch ended) is the worker's trip; the last closes the batch,
// whose seconds per iteration, the trip's excess over the least trip on
// the attempt included, are the worker's pace there. Both size its next
// ask there. A stretch of an attempt cancelled, failed or
// requeued meanwhile is not started, and the batch's results are dropped.
// A body's panic, an error from the compute step, is the fleet's
// worker-death signal: the attempt is aborted and the job heads to the
// fail-queue (or fails terminally once its retry budget is spent).
//
//lint:loopsched-hotpath
func (w *fleetWorker) run(att *attempt) {
	j, bus, grants := att.job, w.s.bus, w.rep.Grants
	start := time.Now()
	w.trip = start.Sub(w.now).Seconds()
	at := bus.Now()
	for k := 0; k < len(grants); {
		if j.att.Load() != att || j.State() != StateRunning {
			w.recs = w.recs[:0]
			return
		}
		g, n := grants[k], 1
		if bus == nil {
			n = dispense.Stretch(grants[k:])
		}
		var err error
		if w.recs, err = exec.Compute(j.spec.Body, nil, w.scale, w.recs, g.Start, grants[k+n-1].End(), true); err != nil {
			w.s.failAttempt(att, fmt.Errorf("service: job %d: %w", j.id, err))
			return
		}
		k += n
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
	// The attempt's first request delivered nothing and met no results of
	// its own: it understates what a request costs, so the least request
	// time counts from the second.
	p, excess := &att.paces[w.id], 0.0
	if p.size > 0 && (p.trip == 0 || w.trip < p.trip) {
		p.trip = w.trip
	}
	if p.trip > 0 {
		excess = w.trip - p.trip
	}
	p.perIter, p.size = (w.comp+excess)/float64(w.iters), w.rep.Run(len(grants)-1).Size
}

// acpNow probes worker id's current ACP.
func (s *Scheduler) acpNow(id int) int {
	return s.opts.ACP.ACP(s.virtual[id], 1+s.opts.Workers[id].Load())
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
	j.book.Lock()
	j.past = append(j.past, att.m)
	j.att.Store(nil)
	j.book.Unlock()
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
