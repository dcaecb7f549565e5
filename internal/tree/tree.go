// Package tree implements Tree Scheduling (Kim & Purtilo 1996), the
// decentralised comparison scheme of the paper. The iteration space is
// split across the slaves up front (evenly, or by virtual power in the
// distributed variant); a slave that exhausts its share takes half of
// the remaining work of a statically chosen partner, so work migrates
// along a partner tree instead of through a central master. Results
// still flow to the coordinator, which the paper found best done "at
// predefined time intervals" rather than all at the end (§5) — both
// modes are modelled.
package tree

import (
	"container/heap"
	"fmt"

	"loopsched/internal/metrics"
	"loopsched/internal/sim"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// Options tune the Tree Scheduling run.
type Options struct {
	// Weighted makes the initial allocation proportional to virtual
	// power (the distributed variant of section 6.1); otherwise every
	// slave starts with an equal share (section 5.1).
	Weighted bool
	// FlushInterval is how often a slave ships accumulated results to
	// the coordinator, in seconds. 0 means 1 s; negative means
	// collect-at-end (the slower alternative the paper describes).
	FlushInterval float64
	// StealBytes is the size of a steal request/reply control message.
	// 0 means 64.
	StealBytes float64
}

func (o Options) flushInterval() float64 {
	if o.FlushInterval == 0 {
		return 1
	}
	return o.FlushInterval
}

func (o Options) stealBytes() float64 {
	if o.StealBytes <= 0 {
		return 64
	}
	return o.StealBytes
}

// Name returns the scheme label used in reports ("TreeS").
func (o Options) Name() string { return "TreeS" }

// span is a half-open iteration range.
type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

const (
	evIterDone = iota
	evStealArrive
	evStealReply
	evFlushArrive // results hit the coordinator queue
	evMasterDone  // coordinator finished receiving one flush
	evRangeArrive // initial allocation reached the slave
)

type event struct {
	t      float64
	seq    int64
	kind   int
	worker int
	from   int
	sp     span
	bytes  float64
	final  bool
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
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type workerState struct {
	times      metrics.Times
	queue      span // remaining local work (next unstarted iteration .. end)
	doneAt     float64
	computing  bool
	flushing   bool    // blocked shipping results to the coordinator
	stealQueue []int   // thieves waiting for this (busy) victim to poll
	pending    float64 // result bytes not yet flushed
	lastFlush  float64
	probes     []int // partner order still to try when idle
	waitingFor int   // victim of the in-flight steal probe (-1 none)
	waitSince  float64
	done       bool
	iterations int
	steals     int
}

type simulator struct {
	cluster sim.Cluster
	params  sim.Params
	opts    Options
	work    workload.Workload
	events  eventQueue
	seq     int64
	workers []workerState
	// coordinator receive queue (single server, like sim's master)
	masterBusy  bool
	masterQueue []event
	lastTime    float64
	nowT        float64
}

// Run executes the workload under Tree Scheduling on the simulated
// cluster and returns a paper-style report.
func Run(c sim.Cluster, o Options, w workload.Workload, p sim.Params) (metrics.Report, error) {
	if err := c.Validate(); err != nil {
		return metrics.Report{}, err
	}
	p = p.WithDefaults()
	if p.Trace != nil {
		p.Trace.Scheme = o.Name()
		p.Trace.Workload = w.Name()
		p.Trace.Workers = len(c.Machines)
	}
	s := &simulator{
		cluster: c,
		params:  p,
		opts:    o,
		work:    w,
		workers: make([]workerState, len(c.Machines)),
	}
	if err := s.run(); err != nil {
		return metrics.Report{}, err
	}
	// Terminal idle (see sim.Run): early finishers wait for the run.
	for i := range s.workers {
		if idle := s.lastTime - s.workers[i].doneAt; idle > 0 && s.workers[i].done {
			s.workers[i].times.Wait += idle
		}
	}
	rep := metrics.Report{
		Scheme:   o.Name(),
		Workload: w.Name(),
		Workers:  len(c.Machines),
		Tp:       s.lastTime,
	}
	for i := range s.workers {
		rep.PerWorker = append(rep.PerWorker, s.workers[i].times)
		rep.Iterations += s.workers[i].iterations
		rep.Chunks += s.workers[i].steals + 1
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("tree: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// partnerOrder returns the deterministic partner probe sequence for
// worker i: its hypercube neighbours (i XOR 2^k), the tree edges along
// which Kim & Purtilo migrate work. Migration is deliberately limited
// to these partners — work does NOT flow freely between arbitrary
// pairs, which is what separates Tree Scheduling from an ideal
// work-stealing scheduler and produces the idle time the paper's
// TreeS columns show.
func partnerOrder(i, p int) []int {
	if p == 1 {
		return nil
	}
	var order []int
	seen := map[int]bool{i: true}
	for bit := 1; bit < p; bit <<= 1 {
		j := i ^ bit
		if j < p && !seen[j] {
			order = append(order, j)
			seen[j] = true
		}
	}
	if len(order) == 0 { // isolated by a non-power-of-two topology
		order = append(order, (i+1)%p)
	}
	return order
}

func (s *simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *simulator) run() error {
	heap.Init(&s.events)
	p := len(s.cluster.Machines)

	// Initial allocation (the master's only scheduling act).
	shares := s.cluster.Shares(s.work.Len(), s.opts.Weighted)
	lo := 0
	for i := range s.cluster.Machines {
		sp := span{lo, lo + shares[i]}
		lo = sp.hi
		d := s.cluster.Machines[i].Link.Transfer(s.params.ReplyBytes)
		s.workers[i].times.Comm += d
		s.workers[i].waitingFor = -1
		s.workers[i].probes = partnerOrder(i, p)
		s.push(event{t: d, kind: evRangeArrive, worker: i, sp: sp})
	}

	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		s.nowT = e.t
		if e.t > s.lastTime {
			s.lastTime = e.t
		}
		switch e.kind {
		case evRangeArrive:
			st := &s.workers[e.worker]
			st.queue = e.sp
			st.lastFlush = e.t
			s.startNext(e.worker, e.t)

		case evIterDone:
			st := &s.workers[e.worker]
			st.computing = false
			st.iterations++
			st.pending += s.params.BytesPerIter
			s.serveSteals(e.worker, e.t) // poll for messages between iterations
			s.maybeFlush(e.worker, e.t, false)
			s.startNext(e.worker, e.t) // no-op while a flush is in flight

		case evStealArrive:
			// A 2001 MPI slave is single-threaded: it only polls for
			// steal requests between iterations (and after flushes).
			// A busy victim therefore parks the request, which is
			// where the thieves' idle time comes from.
			victim := &s.workers[e.worker]
			victim.stealQueue = append(victim.stealQueue, e.from)
			if !victim.computing && !victim.flushing {
				s.serveSteals(e.worker, e.t)
			}

		case evStealReply:
			st := &s.workers[e.worker]
			// Split the probe round-trip: the wire time is
			// communication, the victim's polling delay is waiting.
			wire := 2 * s.cluster.Machines[e.worker].Link.Transfer(s.opts.stealBytes())
			total := e.t - st.waitSince
			if total < wire {
				wire = total
			}
			st.times.Comm += wire
			st.times.Wait += total - wire
			st.waitingFor = -1
			if e.sp.len() > 0 {
				st.queue = e.sp
				st.steals++
				st.probes = partnerOrder(e.worker, p) // reset probe order
				s.startNext(e.worker, e.t)
			} else {
				s.probeOrFinish(e.worker, e.t)
			}

		case evFlushArrive:
			s.masterQueue = append(s.masterQueue, e)
			s.serviceMaster(e.t)

		case evMasterDone:
			s.masterBusy = false
			st := &s.workers[e.worker]
			st.times.Wait += e.t - e.bytes // bytes field reused: enqueue time
			st.flushing = false
			s.serveSteals(e.worker, e.t)
			if e.final {
				st.done = true
				st.doneAt = e.t
			} else {
				s.startNext(e.worker, e.t)
			}
			s.serviceMaster(e.t)
		}
	}
	return nil
}

// serveSteals answers every parked steal request of a now-idle victim:
// halve the remaining range for the first thief, empty grants for the
// rest (the range can only be split once per poll).
func (s *simulator) serveSteals(w int, t float64) {
	victim := &s.workers[w]
	for _, thief := range victim.stealQueue {
		var grant span
		if n := victim.queue.len(); n >= 2 {
			mid := victim.queue.lo + (n+1)/2
			grant = span{mid, victim.queue.hi}
			victim.queue.hi = mid
		}
		d := s.cluster.Machines[thief].Link.Transfer(s.opts.stealBytes())
		s.push(event{t: t + d, kind: evStealReply, worker: thief, from: w, sp: grant})
	}
	victim.stealQueue = victim.stealQueue[:0]
}

// startNext begins the next local iteration, or starts probing
// partners when the local queue is empty.
func (s *simulator) startNext(w int, t float64) {
	st := &s.workers[w]
	if st.computing || st.done || st.flushing || st.waitingFor >= 0 {
		return
	}
	if st.queue.len() == 0 {
		s.probeOrFinish(w, t)
		return
	}
	i := st.queue.lo
	st.queue.lo++
	cost := s.work.Cost(i)
	d := s.cluster.Machines[w].ComputeTime(s.params.BaseRate, t, cost)
	st.times.Comp += d
	st.computing = true
	if s.params.Trace != nil {
		s.params.Trace.Add(trace.Event{Worker: w, Start: i, Size: 1, Begin: t, End: t + d})
	}
	s.push(event{t: t + d, kind: evIterDone, worker: w})
}

// probeOrFinish sends the next steal probe, or flushes and finishes
// when every partner has been tried.
func (s *simulator) probeOrFinish(w int, t float64) {
	st := &s.workers[w]
	for len(st.probes) > 0 {
		victim := st.probes[0]
		st.probes = st.probes[1:]
		if s.workers[victim].done {
			continue
		}
		d := s.cluster.Machines[w].Link.Transfer(s.opts.stealBytes())
		st.waitingFor = victim
		st.waitSince = t
		s.push(event{t: t + d, kind: evStealArrive, worker: victim, from: w})
		return
	}
	// No partners left: ship the final results and terminate.
	s.maybeFlush(w, t, true)
}

// maybeFlush ships accumulated results to the coordinator. The slave
// is blocked for the transfer and until the coordinator has received
// it — "the contention for the master cannot be totally eliminated"
// (§5); periodic flushing merely spreads it across the run instead of
// piling it all at the end.
func (s *simulator) maybeFlush(w int, t float64, final bool) {
	st := &s.workers[w]
	interval := s.opts.flushInterval()
	periodic := interval > 0 && t-st.lastFlush >= interval
	if !final && !periodic {
		return
	}
	if st.pending == 0 {
		if final {
			st.done = true
			st.doneAt = t
		}
		return
	}
	d := s.cluster.Machines[w].Link.Transfer(s.params.RequestBytes + st.pending)
	st.times.Comm += d
	st.flushing = true
	bytes := st.pending
	st.pending = 0
	st.lastFlush = t
	s.push(event{t: t + d, kind: evFlushArrive, worker: w, bytes: bytes, final: final})
}

// serviceMaster drains the coordinator's receive queue, one flush at
// a time (NIC serialisation — the contention the paper observed).
func (s *simulator) serviceMaster(t float64) {
	if s.masterBusy || len(s.masterQueue) == 0 {
		return
	}
	e := s.masterQueue[0]
	s.masterQueue = s.masterQueue[1:]
	s.masterBusy = true
	recv := s.params.MasterOverhead + e.bytes/masterBandwidth(s.cluster)
	done := event{t: t + recv, kind: evMasterDone, worker: e.worker, final: e.final, bytes: e.t}
	s.push(done)
}

func masterBandwidth(c sim.Cluster) float64 {
	if c.MasterBandwidth > 0 {
		return c.MasterBandwidth
	}
	return sim.Mbit100
}
