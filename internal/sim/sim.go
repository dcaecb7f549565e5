package sim

import (
	"container/heap"
	"context"
	"fmt"
	"slices"

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
	evRequestArrive = iota // a request reached its master
	evServiceDone          // a master finished servicing one request
	evReplyArrive          // the master's reply reached the requester
	evComputeDone          // slave finished computing its chunk
	evDumpArrive           // collect-at-end result dump reached master
	evBusDone              // a shared-bus transfer finished
	evRefillDue            // a pipelined slave's next request leaves
)

type event struct {
	t        float64
	seq      int64
	kind     int
	worker   int  // the slave; the shard on the root hop
	root     bool // a shard master's fetch, or the root's answer to it
	assign   sched.Assignment
	stop     bool
	bytes    float64            // result payload a request carries
	chunks   []sched.Assignment // the chunks a request delivers
	prefetch bool               // a request sent ahead of need (evRefillDue)
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
	worker  int // the slave; the shard at the root
	arrival float64
	acp     int
	bytes   float64 // inbound payload the master must receive
	dump    bool    // final result dump (collect-at-end mode)
}

// master is a single server: it answers its queue one request at a
// time, each service costing MasterOverhead plus the request's inbound
// bytes over the master's bandwidth. A slave-facing master answers in
// FIFO order from its book (dispense.Book) — the order the gather's
// release line sets first — which stages one stage at a time from
// stages: the whole loop once on a flat run; on a hierarchical run the
// super-chunks it fetches from the root, one fetch in flight, sent as
// the last buffered one is staged and carrying the results its slaves
// delivered since the previous fetch. The root is a master without a
// book whose grant rule is simulator.grant.
type master struct {
	s        *simulator
	k        int // the shard it masters
	queue    []pendingReq
	busy     bool
	b        *dispense.Book
	stages   []sched.Assignment // received, not yet staged
	fetching bool
	rootDone bool               // the root has nothing more for this master
	results  float64            // result bytes for the next fetch
	stats    metrics.ShardStats // a hierarchical report's entry for it
}

type workerState struct {
	times      metrics.Times
	shard      int                // index of the worker's master
	local      int                // the worker's index at its master
	done       []sched.Assignment // chunks computed, not yet shipped
	heldBytes  float64            // results held locally (collect-at-end)
	reqSent    float64            // when the in-flight request left the slave
	stopped    bool
	finishedAt float64
	// Pipelined-mode state (Params.Prefetch).
	computing      bool             // a chunk is executing right now
	queued         sched.Assignment // reply that arrived mid-compute
	hasQueued      bool
	stopPending    bool    // Stop arrived mid-compute; drain after
	lastComputeEnd float64 // when the previous chunk finished (> 0)
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
	mbw      float64  // every master's bandwidth, bytes/s
	masters  []master // one per shard; one on a flat run
	root     master
	rootLink Link
	// grant is the root's rule for a shard's fetch served at virtual
	// time at; nil on a flat run.
	grant     func(shard int, at float64) (sched.Assignment, bool)
	workers   []workerState
	delivered int // iterations deposited at the masters, each once
	lastTime  float64
	busBusy   bool
	busQueue  []busJob
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
	all := make([]int, len(c.Machines))
	for i := range all {
		all[i] = i
	}
	return RunShards(ctx, c, s, w, p, [][]int{all}, Link{}, nil)
}

// RunShards is RunContext for a two-level run: shard master k drives
// the machines shards[k] and stages the super-chunks it fetches from a
// root over rootLink, where grant answers shard k's fetch served at
// virtual time at. The report's Shards carry each shard's workers,
// iterations, chunks, Comp and finish time; fetch and steal tallies are
// the root's to add.
func RunShards(ctx context.Context, c Cluster, s sched.Scheme, w workload.Workload, p Params,
	shards [][]int, rootLink Link, grant func(shard int, at float64) (sched.Assignment, bool)) (metrics.Report, error) {
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
		cluster:  c,
		params:   p,
		work:     w,
		ctx:      ctx,
		dist:     sched.Distributed(s),
		mbw:      c.masterBandwidth(),
		masters:  make([]master, len(shards)),
		rootLink: rootLink,
		grant:    grant,
		workers:  make([]workerState, len(c.Machines)),
	}
	for k, members := range shards {
		// Static-weight schemes (WF, WS) see the plan-time virtual
		// powers but never the run-time load (the paper's section 6
		// distinction).
		powers := make([]float64, len(members))
		for i, wi := range members {
			powers[i] = c.Machines[wi].Power
			sim.workers[wi].shard, sim.workers[wi].local = k, i
		}
		m := &sim.masters[k]
		m.s, m.k = sim, k
		m.stats = metrics.ShardStats{Shard: k, Workers: len(members)}
		// A super-chunk is re-planned at its boundary, never mid-stage. A
		// worker holds a chunk in hand and one prefetched.
		m.b = dispense.NewBook(dispense.Config{
			Scheme: s, Workers: len(members), Powers: powers,
			NoReplan: p.DisableReplan || grant != nil,
		}, w.Len(), 2, m)
		if grant == nil {
			m.stages, m.rootDone = []sched.Assignment{{Size: w.Len()}}, true
		}
	}
	if err := sim.run(); err != nil {
		return metrics.Report{}, err
	}
	// Charge terminal idle: a slave that was stopped early still sits
	// in the barrier until the whole loop finishes — the paper's
	// T_wait is exactly this "fast PEs wait for the critical chunk"
	// signal (Table 2's 17–19 s waits on the fast PEs).
	for i := range sim.workers {
		if idle := sim.lastTime - sim.workers[i].finishedAt; idle > 0 && sim.workers[i].stopped {
			sim.workers[i].times.Wait += idle
		}
	}
	report := metrics.Report{
		Scheme:   s.Name(),
		Workload: w.Name(),
		Workers:  len(c.Machines),
		Tp:       sim.lastTime,
	}
	for k := range sim.masters {
		m := &sim.masters[k]
		chunks, iters := m.b.Granted()
		m.stats.Chunks, m.stats.Iterations = chunks, int(iters)
		report.Chunks += m.stats.Chunks
		report.Replans += m.b.Replans()
		if grant != nil {
			report.Shards = append(report.Shards, m.stats)
		}
	}
	for i := range sim.workers {
		report.PerWorker = append(report.PerWorker, sim.workers[i].times)
	}
	if report.Iterations = sim.delivered; sim.delivered != w.Len() {
		return report, fmt.Errorf("sim: delivered %d of %d iterations", sim.delivered, w.Len())
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

// masterOf returns worker w's master.
func (s *simulator) masterOf(w int) *master { return &s.masters[s.workers[w].shard] }

// finish stops worker w at time t.
func (s *simulator) finish(w int, t float64) {
	st := &s.workers[w]
	st.stopped, st.finishedAt = true, t
	if m := s.masterOf(w); t > m.stats.Finished {
		m.stats.Finished = t
	}
}

// sendRequest models the slave transmitting a request to the master,
// delivering the chunks it computed since the last one and, unless it
// collects them at the end, piggy-backing their results. A prefetch is a
// refill's request (evRefillDue); every other request is synchronous.
func (s *simulator) sendRequest(w int, t float64, prefetch bool) {
	m := s.cluster.Machines[w]
	st := &s.workers[w]
	bytes := s.params.RequestBytes
	var inbound float64
	if !s.params.CollectAtEnd {
		inbound = s.payload(st)
		bytes += inbound
	}
	d := m.Link.Transfer(bytes)
	st.reqSent = t
	s.transfer(w, t, d, event{kind: evRequestArrive, worker: w, bytes: inbound, chunks: st.done, prefetch: prefetch})
	st.done = nil
}

// payload is the result bytes of the chunks worker st computed since its
// last request.
func (s *simulator) payload(st *workerState) float64 {
	iters := 0
	for _, a := range st.done {
		iters += a.Size
	}
	return float64(iters) * s.params.BytesPerIter
}

// fetch sends shard master k's next super-chunk request to the root,
// unless one is in flight or the root is done with it.
func (s *simulator) fetch(k int) {
	m := &s.masters[k]
	if m.fetching || m.rootDone {
		return
	}
	m.fetching = true
	bytes := m.results
	m.results = 0
	d := s.rootLink.Transfer(s.params.RequestBytes + bytes)
	s.push(event{t: s.now + d, kind: evRequestArrive, worker: k, root: true, bytes: bytes})
}

func (s *simulator) run() error {
	heap.Init(&s.events)
	for k := range s.masters {
		s.fetch(k)
	}
	// All slaves fire their first (empty) request at t = 0.
	for w := range s.cluster.Machines {
		s.sendRequest(w, 0, false)
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
		var err error
		switch e.kind {
		case evRequestArrive:
			if e.root {
				s.root.queue = append(s.root.queue, pendingReq{worker: e.worker, arrival: e.t, bytes: e.bytes})
				err = s.serve(&s.root)
				break
			}
			w := e.worker
			st := &s.workers[w]
			m := s.masterOf(w)
			for _, c := range e.chunks {
				if m.b.Deposit(c.Start, c.End()) != c.Size {
					return fmt.Errorf("sim: worker %d delivered %+v twice", w, c)
				}
				s.delivered += c.Size
			}
			// A synchronous request declares that the worker holds
			// nothing else: on a correct simulator it abandons nothing.
			if _, _, lost := m.b.Retire(st.local, !e.prefetch); len(lost) > 0 {
				return fmt.Errorf("sim: worker %d abandoned %v", w, lost)
			}
			a := s.acpAt(w, st.reqSent)
			if m.b.Report(st.local, a) {
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.WorkerJoined, Worker: w, Shard: st.shard,
					ACP: a, At: e.t,
				})
			}
			s.params.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.ChunkRequested, Worker: w, Shard: st.shard,
				ACP: a, At: e.t,
			})
			m.results += e.bytes
			m.queue = append(m.queue, pendingReq{worker: w, arrival: e.t, acp: a, bytes: e.bytes})
			err = s.serve(m)

		case evDumpArrive:
			m := s.masterOf(e.worker)
			m.queue = append(m.queue, pendingReq{worker: e.worker, arrival: e.t, bytes: e.bytes, dump: true})
			err = s.serve(m)

		case evServiceDone:
			w := e.worker
			if e.root {
				s.root.busy = false
				d := s.rootLink.Transfer(s.params.ReplyBytes)
				s.push(event{t: e.t + d, kind: evReplyArrive, worker: w, root: true, assign: e.assign, stop: e.stop})
				err = s.serve(&s.root)
				break
			}
			m := s.masterOf(w)
			m.busy = false
			if e.assign.Size < 0 { // final dump acknowledged
				s.finish(w, e.t)
			} else {
				d := s.cluster.Machines[w].Link.Transfer(s.params.ReplyBytes)
				s.transfer(w, e.t, d, event{kind: evReplyArrive, worker: w, assign: e.assign, stop: e.stop})
			}
			err = s.serve(m)

		case evReplyArrive:
			if e.root {
				m := &s.masters[e.worker]
				m.fetching = false
				if e.stop {
					m.rootDone = true
				} else {
					m.stages = append(m.stages, e.assign)
				}
				err = s.serve(m)
				break
			}
			if s.params.Prefetch {
				s.prefetchReply(e)
				continue
			}
			w := e.worker
			st := &s.workers[w]
			if e.stop {
				if s.params.CollectAtEnd && st.heldBytes > 0 {
					d := s.cluster.Machines[w].Link.Transfer(s.params.RequestBytes + st.heldBytes)
					st.reqSent = e.t
					s.transfer(w, e.t, d, event{kind: evDumpArrive, worker: w, bytes: st.heldBytes})
					st.heldBytes = 0
				} else {
					s.finish(w, e.t)
				}
				break
			}
			d := s.compute(w, e.assign, e.t)
			if s.params.CollectAtEnd {
				st.heldBytes += float64(e.assign.Size) * s.params.BytesPerIter
			}
			s.push(event{t: e.t + d, kind: evComputeDone, worker: w, assign: e.assign})

		case evComputeDone:
			if s.params.Prefetch {
				s.prefetchComputeDone(e)
				continue
			}
			st := &s.workers[e.worker]
			st.done = append(st.done, e.assign)
			s.sendRequest(e.worker, e.t, false)

		case evRefillDue:
			s.sendRequest(e.worker, e.t, true)

		case evBusDone:
			s.busBusy = false
			if e.payload != nil {
				s.push(*e.payload)
			}
			s.serviceBus(e.t)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// compute books worker w executing chunk a from time t — its duration
// under the machine's load script, the feedback sample, the trace span
// and the completion event — and returns the duration.
func (s *simulator) compute(w int, a sched.Assignment, t float64) float64 {
	st := &s.workers[w]
	m := s.masterOf(w)
	work := workload.RangeCost(s.work, a.Start, a.End())
	d := s.cluster.Machines[w].ComputeTime(s.params.BaseRate, t, work)
	st.times.Comp += d
	m.stats.Comp += d
	m.b.Learn(st.local, work, d) // the master measures it on the next request
	if s.params.Trace != nil {
		s.params.Trace.Add(trace.Event{
			Worker: w,
			Start:  a.Start,
			Size:   a.Size,
			Begin:  t,
			End:    t + d,
			ACP:    m.b.ACP(st.local),
		})
	}
	s.params.Telemetry.Publish(telemetry.Event{
		Kind: telemetry.ChunkCompleted, Worker: w, Shard: st.shard,
		Start: a.Start, Size: a.Size,
		ACP: m.b.ACP(st.local), At: t + d, Seconds: d,
	})
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
	if stall := t - st.lastComputeEnd; st.lastComputeEnd > 0 && stall > 0 {
		st.times.Idle += stall
	}
	d := s.compute(w, a, t)
	st.computing = true
	s.push(event{t: t + d, kind: evComputeDone, worker: w, assign: a})
	// The lead: request out with the held results, master receive and
	// scheduling, reply back — 2·latency + transfers + service.
	m := s.cluster.Machines[w]
	payload := s.payload(st)
	lead := m.Link.Transfer(s.params.RequestBytes+payload) + s.params.MasterOverhead +
		payload/s.mbw + m.Link.Transfer(s.params.ReplyBytes)
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
		if len(st.done) > 0 {
			// Ship the held results; the master's next (Stop) reply
			// then terminates the slave.
			s.sendRequest(w, e.t, false)
			return
		}
		s.finish(w, e.t)
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
	st.done = append(st.done, e.assign)
	st.lastComputeEnd = e.t
	switch {
	case st.hasQueued:
		a := st.queued
		st.hasQueued = false
		s.startCompute(e.worker, a, e.t)
	case st.stopPending:
		st.stopPending = false
		s.sendRequest(e.worker, e.t, false)
	}
}

// serve starts master m's next service if it is idle and can answer a
// queued request — a slave-facing master of a distributed scheme only
// once every slave has reported (step 1(a)) — and schedules its end
// after the receive plus scheduling overhead. A slave is charged the
// waiting time, queueing plus service: the paper's T_wait.
func (s *simulator) serve(m *master) error {
	if m.busy || len(m.queue) == 0 || (m.b != nil && s.dist && !m.b.Gathered()) {
		return nil
	}
	i := m.next()
	req := m.queue[i]
	ev := event{kind: evServiceDone, worker: req.worker}
	if m.b == nil {
		// now + (overhead + transfer) here, (now + overhead) + transfer
		// at a slave-facing master: TestSimulatePinned holds both
		// roundings.
		ev.t = s.now + (s.params.MasterOverhead + req.bytes/s.mbw)
		a, ok := s.grant(req.worker, s.now)
		ev.root, ev.assign, ev.stop = true, a, !ok
	} else {
		ev.t = s.now + s.params.MasterOverhead + req.bytes/s.mbw
		st := &s.workers[req.worker]
		if req.dump {
			ev.assign.Size = -1
		} else { // one chunk, as the runtime's master answers one credit
			got, replanned, _, err := m.b.Grant(st.local, req.acp, 1)
			if replanned { // DTSS step 2(c): a majority of ACPs changed
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.StageAdvanced, Worker: req.worker, Shard: st.shard, At: ev.t,
				})
			}
			switch {
			case err != nil:
				return err
			case len(got) == 0 && m.next() != i: // the stage lined the gather up
				return s.serve(m)
			case len(got) == 0 && !m.rootDone:
				return nil // wait for the fetch in flight
			case len(got) == 0:
				ev.stop = true
			default:
				ev.assign = got[0].Range()
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.ChunkGranted, Worker: req.worker, Shard: st.shard,
					Start: ev.assign.Start, Size: ev.assign.Size, ACP: req.acp,
					At: ev.t, Seconds: ev.t - req.arrival,
				})
			}
		}
		if !s.params.Prefetch {
			st.times.Wait += ev.t - req.arrival
		}
	}
	m.queue = slices.Delete(m.queue, i, i+1)
	m.busy = true
	s.push(ev)
	return nil
}

// next returns the index in m's queue of the request it answers next:
// that of the worker the gather's release line lets draw, else the
// oldest.
func (m *master) next() int {
	if m.b == nil {
		return 0
	}
	w, lined := m.b.Turn()
	return max(0, slices.IndexFunc(m.queue, func(r pendingReq) bool {
		return lined && !r.dump && m.s.workers[r.worker].local == w
	}))
}

// Take hands m's book its next buffered stage, keeping one fetch in
// flight: the last one buffered sends the next fetch.
func (m *master) Take() (start, size int, ok bool) {
	if len(m.stages) == 0 {
		return 0, 0, false
	}
	g := m.stages[0]
	m.stages = m.stages[1:]
	if m.s.grant != nil { // each super-chunk is a fresh stage for the shard
		m.s.params.Telemetry.Publish(telemetry.Event{
			Kind: telemetry.StageAdvanced, Shard: m.k,
			Start: g.Start, Size: g.Size, At: m.s.now,
		})
	}
	m.s.fetch(m.k) // it buffers one stage at most
	return g.Start, g.Size, true
}

// Waiting reports that worker w's request waits: the gather serves none
// before the first stage, so each worker has one queued when it is lined
// up.
func (*master) Waiting(int) bool { return true }
