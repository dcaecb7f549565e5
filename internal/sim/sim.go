package sim

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"loopsched/internal/acp"
	"loopsched/internal/dispense"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// Params tune the simulated protocol. The zero value gives the
// defaults documented on each field.
type Params struct {
	// BaseRate is the work-unit throughput of an unloaded power-1
	// machine, in units per second. 0 means 3e6 (calibrated so the
	// paper's 4000×2000 Mandelbrot lands in the paper's tens-of-
	// seconds range).
	BaseRate float64
	// MasterOverhead is the scheduling time per serviced request.
	// 0 means 1 ms.
	MasterOverhead float64
	// RequestBytes / ReplyBytes are the control-message sizes.
	// 0 means 64 bytes each.
	RequestBytes, ReplyBytes float64
	// BytesPerIter is the result payload produced by one iteration
	// (one Mandelbrot column ≈ Height × 2 bytes). 0 means 4096.
	BytesPerIter float64
	// CollectAtEnd disables the paper's piggy-backing optimisation:
	// slaves hold their results and dump them to the master when the
	// loop ends (the slower alternative §5 describes).
	CollectAtEnd bool
	// Prefetch models the pipelined runtime: a slave requests chunk k+1
	// one uncontended master round trip before chunk k ends (at once when
	// the chunk is shorter than that), so the round trip overlaps with the
	// kernel and the next chunk is bound as late as hiding it allows.
	// Transfers and master services still shape the timeline, but they are
	// no longer charged
	// to Comm/Wait — only the residue the pipeline fails to hide is
	// charged, as Idle (compute stalls between consecutive chunks).
	// Incompatible with CollectAtEnd: the pipeline piggy-backs results
	// by construction.
	Prefetch bool
	// SharedBus serialises every transfer on one half-duplex medium —
	// the hub/coax Ethernet of the paper's era — instead of giving
	// each slave an independent link. Queueing for the medium is
	// charged as waiting time.
	SharedBus bool
	// ACP is the available-computing-power model used by distributed
	// schemes (zero value = scale 10, no threshold).
	ACP acp.Model
	// DisableReplan turns off the DTSS step 2(c) majority re-plan
	// (ablation).
	DisableReplan bool
	// Trace, when non-nil, records every computed chunk (worker,
	// iteration range, compute interval, reported ACP).
	Trace *trace.Trace
	// Telemetry, when non-nil, receives live protocol events stamped
	// with *virtual* simulation time (Event.At is simulated seconds,
	// not wall seconds). Prefetch hits/misses are not modelled: the
	// simulator has no explicit prefetch handshake, so every grant is
	// published as ChunkGranted.
	Telemetry *telemetry.Bus
}

// WithDefaults resolves the documented zero-value defaults; other
// packages that reuse Params (e.g. the hierarchical simulator) call it
// so the knobs mean the same thing everywhere.
func (p Params) WithDefaults() Params { return p.withDefaults() }

func (p Params) withDefaults() Params {
	if p.BaseRate <= 0 {
		p.BaseRate = 3e6
	}
	if p.MasterOverhead <= 0 {
		p.MasterOverhead = 1e-3
	}
	if p.RequestBytes <= 0 {
		p.RequestBytes = 64
	}
	if p.ReplyBytes <= 0 {
		p.ReplyBytes = 64
	}
	if p.BytesPerIter <= 0 {
		p.BytesPerIter = 4096
	}
	return p
}

// event kinds.
const (
	evRequestArrive = iota // a slave request reached the master
	evServiceDone          // master finished servicing one request
	evReplyArrive          // the master's reply reached the slave
	evComputeDone          // slave finished computing its chunk
	evDumpArrive           // collect-at-end result dump reached master
	evBusDone              // a shared-bus transfer finished
	evRefillDue            // a pipelined slave's next request leaves
)

type event struct {
	t      float64
	seq    int64
	kind   int
	worker int
	assign sched.Assignment
	stop   bool
	// payload is the event a bus transfer delivers on completion.
	payload *event
}

// busJob is one queued transfer on the shared medium.
type busJob struct {
	duration float64
	enqueued float64
	worker   int // whose Comm/Wait the transfer is charged to
	deliver  event
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type pendingReq struct {
	worker  int
	arrival float64
	acp     int
	bytes   float64 // inbound payload the master must receive
	dump    bool    // final result dump (collect-at-end mode)
}

type workerState struct {
	times      metrics.Times
	lastChunk  int     // iterations of the chunk just computed
	heldBytes  float64 // results held locally (collect-at-end)
	reqSent    float64 // when the in-flight request left the slave
	fbWork     float64 // cost of the chunk just computed (feedback)
	fbElapsed  float64 // its execution time (feedback)
	done       bool
	finishedAt float64
	iterations int
	requests   int
	// Pipelined-mode state (Params.Prefetch).
	computing      bool             // a chunk is executing right now
	queued         sched.Assignment // reply that arrived mid-compute
	hasQueued      bool
	stopPending    bool    // Stop arrived mid-compute; drain after
	lastComputeEnd float64 // when the previous chunk finished
	computedOnce   bool
}

type simulator struct {
	cluster  Cluster
	params   Params
	work     workload.Workload
	dist     bool
	ctx      context.Context
	steps    int64
	now      float64
	seq      int64
	events   eventQueue
	queue    []pendingReq
	busy     bool
	workers  []workerState
	d        *dispense.Dispenser // the master's gather / plan / draw state
	chunks   int
	lastTime float64
	busBusy  bool
	busQueue []busJob
}

// transfer moves a message for worker w, delivering ev when it
// completes. Independent links deliver at t+d; the shared bus queues
// the job for the single medium, charging the queueing delay as
// waiting time.
func (s *simulator) transfer(w int, t, d float64, ev event) {
	if !s.params.SharedBus {
		// Pipelined transfers overlap with computation; their exposed
		// cost surfaces as Idle at the compute loop, not here.
		if !s.params.Prefetch {
			s.workers[w].times.Comm += d
		}
		ev.t = t + d
		s.push(ev)
		return
	}
	s.busQueue = append(s.busQueue, busJob{duration: d, enqueued: t, worker: w, deliver: ev})
	s.serviceBus(t)
}

func (s *simulator) serviceBus(t float64) {
	if s.busBusy || len(s.busQueue) == 0 {
		return
	}
	job := s.busQueue[0]
	s.busQueue = s.busQueue[1:]
	s.busBusy = true
	st := &s.workers[job.worker]
	if !s.params.Prefetch {
		st.times.Comm += job.duration
		if q := t - job.enqueued; q > 0 {
			st.times.Wait += q
		}
	}
	deliver := job.deliver
	deliver.t = t + job.duration
	s.push(event{t: t + job.duration, kind: evBusDone, payload: &deliver})
}

// Run executes the workload on the cluster under the scheme and
// returns the paper-style report. The simulation is deterministic.
func Run(c Cluster, s sched.Scheme, w workload.Workload, p Params) (metrics.Report, error) {
	return RunContext(context.Background(), c, s, w, p)
}

// RunContext is Run with cancellation: the event loop polls ctx and
// aborts with its error. The simulation stays deterministic — ctx only
// decides whether it runs to completion.
func RunContext(ctx context.Context, c Cluster, s sched.Scheme, w workload.Workload, p Params) (metrics.Report, error) {
	if err := c.Validate(); err != nil {
		return metrics.Report{}, err
	}
	if p.Prefetch && p.CollectAtEnd {
		return metrics.Report{}, fmt.Errorf("sim: Prefetch piggy-backs results and cannot be combined with CollectAtEnd")
	}
	p = p.withDefaults()
	if p.Trace != nil {
		p.Trace.Scheme = s.Name()
		p.Trace.Workload = w.Name()
		p.Trace.Workers = len(c.Machines)
	}
	sim := &simulator{
		cluster: c,
		params:  p,
		work:    w,
		ctx:     ctx,
		dist:    sched.Distributed(s),
		workers: make([]workerState, len(c.Machines)),
		// Static-weight schemes (WF, WS) see the plan-time virtual
		// powers but never the run-time load (the paper's section 6
		// distinction).
		d: dispense.New(dispense.Config{
			Scheme: s, Workers: len(c.Machines), Powers: c.Powers(),
			NoReplan: p.DisableReplan,
		}),
	}
	if err := sim.run(); err != nil {
		return metrics.Report{}, err
	}
	// Charge terminal idle: a slave that was stopped early still sits
	// in the barrier until the whole loop finishes — the paper's
	// T_wait is exactly this "fast PEs wait for the critical chunk"
	// signal (Table 2's 17–19 s waits on the fast PEs).
	for i := range sim.workers {
		if idle := sim.lastTime - sim.workers[i].finishedAt; idle > 0 && sim.workers[i].done {
			sim.workers[i].times.Wait += idle
		}
	}
	report := metrics.Report{
		Scheme:   s.Name(),
		Workload: w.Name(),
		Workers:  len(c.Machines),
		Tp:       sim.lastTime,
		Chunks:   sim.chunks,
		Replans:  sim.d.Replans(),
	}
	for i := range sim.workers {
		report.PerWorker = append(report.PerWorker, sim.workers[i].times)
		report.Iterations += sim.workers[i].iterations
	}
	if report.Iterations != w.Len() {
		return report, fmt.Errorf("sim: executed %d of %d iterations", report.Iterations, w.Len())
	}
	return report, nil
}

func (s *simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// acpAt evaluates a slave's ACP when it sends a request.
func (s *simulator) acpAt(w int, t float64) int {
	m := s.cluster.Machines[w]
	return s.params.ACP.ACP(m.Power, m.RunQueue(t))
}

// sendRequest models the slave transmitting a request (plus any
// piggy-backed results) to the master.
func (s *simulator) sendRequest(w int, t float64) {
	m := s.cluster.Machines[w]
	st := &s.workers[w]
	bytes := s.params.RequestBytes
	var inbound float64
	if !s.params.CollectAtEnd && st.lastChunk > 0 {
		payload := float64(st.lastChunk) * s.params.BytesPerIter
		bytes += payload
		inbound = payload
	}
	d := m.Link.Transfer(bytes)
	st.reqSent = t
	st.lastChunk = 0
	st.requests++
	s.transfer(w, t, d, event{kind: evRequestArrive, worker: w, assign: sched.Assignment{Size: int(inbound)}})
}

func (s *simulator) run() error {
	heap.Init(&s.events)
	// Simple schemes plan immediately; distributed masters first wait
	// for every slave to report its A_i (master step 1(a)).
	if !s.dist {
		if err := s.d.Stage(0, s.work.Len()); err != nil {
			return err
		}
	}
	// All slaves fire their first (empty) request at t = 0.
	for w := range s.cluster.Machines {
		s.sendRequest(w, 0)
	}
	if s.ctx != nil { // a pre-cancelled run must not simulate at all
		if err := s.ctx.Err(); err != nil {
			return err
		}
	}
	for s.events.Len() > 0 {
		if s.steps++; s.steps&1023 == 0 && s.ctx != nil {
			if err := s.ctx.Err(); err != nil {
				return err
			}
		}
		e := heap.Pop(&s.events).(event)
		s.now = e.t
		if e.t > s.lastTime {
			s.lastTime = e.t
		}
		switch e.kind {
		case evRequestArrive:
			w := e.worker
			a := s.acpAt(w, s.workers[w].reqSent)
			if s.d.Report(w, a) {
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.WorkerJoined, Worker: w,
					ACP: a, At: e.t,
				})
			}
			s.params.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.ChunkRequested, Worker: w,
				ACP: a, At: e.t,
			})
			s.queue = append(s.queue, pendingReq{
				worker:  w,
				arrival: e.t,
				acp:     a,
				bytes:   float64(e.assign.Size),
			})
			if !s.d.Planned() {
				if !s.d.Gathered() {
					continue // master still gathering initial reports
				}
				// Sort the initial queue by ACP decreasing (step 1a).
				sort.SliceStable(s.queue, func(i, j int) bool {
					return s.queue[i].acp > s.queue[j].acp
				})
				if err := s.d.Stage(0, s.work.Len()); err != nil {
					return err
				}
			}
			s.serviceNext()

		case evDumpArrive:
			s.queue = append(s.queue, pendingReq{
				worker:  e.worker,
				arrival: e.t,
				bytes:   float64(e.assign.Size),
				dump:    true,
			})
			s.serviceNext()

		case evServiceDone:
			s.busy = false
			w := e.worker
			st := &s.workers[w]
			if e.assign.Size < 0 { // final dump acknowledged
				st.done = true
				st.finishedAt = e.t
			} else {
				m := s.cluster.Machines[w]
				d := m.Link.Transfer(s.params.ReplyBytes)
				s.transfer(w, e.t, d, event{kind: evReplyArrive, worker: w, assign: e.assign, stop: e.stop})
			}
			s.serviceNext()

		case evReplyArrive:
			if s.params.Prefetch {
				s.prefetchReply(e)
				continue
			}
			w := e.worker
			st := &s.workers[w]
			if e.stop {
				if s.params.CollectAtEnd && st.heldBytes > 0 {
					m := s.cluster.Machines[w]
					d := m.Link.Transfer(s.params.RequestBytes + st.heldBytes)
					st.reqSent = e.t
					s.transfer(w, e.t, d, event{kind: evDumpArrive, worker: w,
						assign: sched.Assignment{Size: int(st.heldBytes)}})
					st.heldBytes = 0
				} else {
					st.done = true
					st.finishedAt = e.t
				}
				continue
			}
			d := s.compute(w, e.assign, e.t)
			st.lastChunk = e.assign.Size
			if s.params.CollectAtEnd {
				st.heldBytes += float64(e.assign.Size) * s.params.BytesPerIter
			}
			s.push(event{t: e.t + d, kind: evComputeDone, worker: w})

		case evComputeDone:
			if s.params.Prefetch {
				s.prefetchComputeDone(e)
				continue
			}
			s.sendRequest(e.worker, e.t)

		case evRefillDue:
			s.sendRequest(e.worker, e.t)

		case evBusDone:
			s.busBusy = false
			if e.payload != nil {
				s.push(*e.payload)
			}
			s.serviceBus(e.t)
		}
	}
	return nil
}

// compute books worker w executing chunk a from time t — its duration
// under the machine's load script, the feedback sample, the trace span
// and the completion event — and returns the duration.
func (s *simulator) compute(w int, a sched.Assignment, t float64) float64 {
	st := &s.workers[w]
	work := workload.RangeCost(s.work, a.Start, a.End())
	d := s.cluster.Machines[w].ComputeTime(s.params.BaseRate, t, work)
	st.times.Comp += d
	st.fbWork, st.fbElapsed = work, d
	if s.params.Trace != nil {
		s.params.Trace.Add(trace.Event{
			Worker: w,
			Start:  a.Start,
			Size:   a.Size,
			Begin:  t,
			End:    t + d,
			ACP:    s.d.ACP(w),
		})
	}
	s.params.Telemetry.Publish(telemetry.Event{
		Kind: telemetry.ChunkCompleted, Worker: w,
		Start: a.Start, Size: a.Size,
		ACP: s.d.ACP(w), At: t + d, Seconds: d,
	})
	st.iterations += a.Size
	return d
}

// startCompute begins executing assignment a on worker w at time t and
// schedules the next (prefetch) request — carrying the results of the
// previously finished chunk — one round trip before the chunk ends, so
// the round trip overlaps with the kernel without binding the next chunk
// earlier than that takes (exec.Worker's time rule, with the lead the
// link model gives instead of a measured one). Any gap since the last
// chunk ended is the stall the pipeline failed to hide, charged as Idle.
func (s *simulator) startCompute(w int, a sched.Assignment, t float64) {
	st := &s.workers[w]
	if st.computedOnce {
		if stall := t - st.lastComputeEnd; stall > 0 {
			st.times.Idle += stall
		}
	}
	d := s.compute(w, a, t)
	st.computing = true
	s.push(event{t: t + d, kind: evComputeDone, worker: w, assign: a})
	// The lead: request out with the held results, master receive and
	// scheduling, reply back — 2·latency + transfers + service.
	m := s.cluster.Machines[w]
	payload := float64(st.lastChunk) * s.params.BytesPerIter
	lead := m.Link.Transfer(s.params.RequestBytes+payload) + s.params.MasterOverhead +
		payload/s.cluster.masterBandwidth() + m.Link.Transfer(s.params.ReplyBytes)
	s.push(event{t: max(t, t+d-lead), kind: evRefillDue, worker: w})
}

// prefetchReply handles a master reply in pipelined mode: an
// assignment either starts computing at once (slave was stalled) or is
// buffered as the second outstanding chunk; a Stop either terminates
// an idle slave, triggers the final result drain, or is deferred until
// the current chunk finishes.
func (s *simulator) prefetchReply(e event) {
	w := e.worker
	st := &s.workers[w]
	if e.stop {
		if st.computing {
			st.stopPending = true
			return
		}
		if st.lastChunk > 0 {
			// Ship the held results; the master's next (Stop) reply
			// then terminates the slave.
			s.sendRequest(w, e.t)
			return
		}
		st.done = true
		st.finishedAt = e.t
		return
	}
	if st.computing {
		st.queued, st.hasQueued = e.assign, true
		return
	}
	s.startCompute(w, e.assign, e.t)
}

// prefetchComputeDone finishes a chunk in pipelined mode: if the
// prefetched reply already arrived the next chunk starts back-to-back
// (the hidden-communication case); a deferred Stop drains the final
// results; otherwise the slave stalls until its prefetch lands.
func (s *simulator) prefetchComputeDone(e event) {
	st := &s.workers[e.worker]
	st.computing = false
	st.lastChunk = e.assign.Size
	st.lastComputeEnd = e.t
	st.computedOnce = true
	switch {
	case st.hasQueued:
		a := st.queued
		st.hasQueued = false
		s.startCompute(e.worker, a, e.t)
	case st.stopPending:
		st.stopPending = false
		s.sendRequest(e.worker, e.t)
	}
}

// serviceNext pops the head request if the master is idle, decides the
// reply, and schedules evServiceDone after the receive + scheduling
// overhead. The waiting time (queueing + service) is charged to the
// slave, matching the paper's T_wait.
func (s *simulator) serviceNext() {
	if s.busy || len(s.queue) == 0 || !s.d.Planned() {
		return
	}
	req := s.queue[0]
	s.queue = s.queue[1:]
	s.busy = true
	recv := s.params.MasterOverhead + req.bytes/s.cluster.masterBandwidth()
	done := s.now + recv
	st := &s.workers[req.worker]
	if !s.params.Prefetch {
		st.times.Wait += done - req.arrival
	}

	if req.dump {
		s.push(event{t: done, kind: evServiceDone, worker: req.worker,
			assign: sched.Assignment{Size: -1}})
		return
	}

	// Timing feedback for learning policies (AWF): the master measures
	// each chunk's turnaround when the next request arrives.
	if st.fbElapsed > 0 {
		s.d.Feedback(req.worker, st.fbWork, st.fbElapsed)
		st.fbElapsed = 0
	}

	a, ok, replanned := s.d.Next(req.worker, req.acp)
	if replanned { // DTSS step 2(c): a majority of ACPs changed
		s.params.Telemetry.Publish(telemetry.Event{
			Kind: telemetry.StageAdvanced, Worker: req.worker, At: done,
		})
	}
	if !ok {
		s.push(event{t: done, kind: evServiceDone, worker: req.worker, stop: true})
		return
	}
	s.chunks++
	s.params.Telemetry.Publish(telemetry.Event{
		Kind: telemetry.ChunkGranted, Worker: req.worker,
		Start: a.Start, Size: a.Size, ACP: req.acp,
		At: done, Seconds: done - req.arrival,
	})
	s.push(event{t: done, kind: evServiceDone, worker: req.worker, assign: a})
}
