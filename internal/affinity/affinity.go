// Package affinity implements Affinity Scheduling (Markatos &
// LeBlanc, reference [12] of the paper): iterations are statically
// partitioned into per-processor local queues; each processor works
// through its own queue in chunks of 1/k of the queue's remainder, and
// an idle processor steals 1/p of the remaining work of the *most
// loaded* processor. Where Tree Scheduling migrates along fixed
// partner edges, affinity scheduling picks victims globally — here
// through a directory lookup at the coordinator, which is how a
// distributed implementation realises the shared-memory original.
package affinity

import (
	"container/heap"
	"fmt"

	"loopsched/internal/metrics"
	"loopsched/internal/sim"
	"loopsched/internal/workload"
)

// Options tune an affinity-scheduling run.
type Options struct {
	// K is the local chunking denominator (a processor claims
	// ⌈remaining/K⌉ of its own queue per step). 0 means p.
	K int
	// Weighted makes the initial partition proportional to virtual
	// power, the natural heterogeneous variant.
	Weighted bool
	// StealBytes sizes the directory/steal control messages (0 = 64).
	StealBytes float64
}

func (o Options) stealBytes() float64 {
	if o.StealBytes <= 0 {
		return 64
	}
	return o.StealBytes
}

// Name labels the scheme in reports.
func (o Options) Name() string { return "AFS" }

type span struct{ lo, hi int }

func (s span) len() int { return s.hi - s.lo }

const (
	evChunkDone = iota
	evDirReply  // directory told the thief who is most loaded
	evStealGrant
	evRangeArrive
)

type event struct {
	t      float64
	seq    int64
	kind   int
	worker int
	victim int
	sp     span
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
	queue      span
	busy       bool
	done       bool
	doneAt     float64
	waitSince  float64
	iterations int
	claims     int // local chunk claims (scheduling steps)
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
	k       int
	last    float64
}

// Run executes the workload under affinity scheduling on the simulated
// cluster.
func Run(c sim.Cluster, o Options, w workload.Workload, p sim.Params) (metrics.Report, error) {
	if err := c.Validate(); err != nil {
		return metrics.Report{}, err
	}
	p = p.WithDefaults()
	k := o.K
	if k < 1 {
		k = len(c.Machines)
	}
	s := &simulator{
		cluster: c,
		params:  p,
		opts:    o,
		work:    w,
		workers: make([]workerState, len(c.Machines)),
		k:       k,
	}
	if err := s.run(); err != nil {
		return metrics.Report{}, err
	}
	for i := range s.workers {
		if idle := s.last - s.workers[i].doneAt; idle > 0 && s.workers[i].done {
			s.workers[i].times.Wait += idle
		}
	}
	rep := metrics.Report{
		Scheme:   o.Name(),
		Workload: w.Name(),
		Workers:  len(c.Machines),
		Tp:       s.last,
	}
	for i := range s.workers {
		rep.PerWorker = append(rep.PerWorker, s.workers[i].times)
		rep.Iterations += s.workers[i].iterations
		rep.Chunks += s.workers[i].claims
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("affinity: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

func (s *simulator) push(e event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *simulator) run() error {
	heap.Init(&s.events)
	shares := s.cluster.Shares(s.work.Len(), s.opts.Weighted)
	lo := 0
	for i := range s.cluster.Machines {
		sp := span{lo, lo + shares[i]}
		lo = sp.hi
		d := s.cluster.Machines[i].Link.Transfer(s.params.ReplyBytes)
		s.workers[i].times.Comm += d
		s.push(event{t: d, kind: evRangeArrive, worker: i, sp: sp})
	}

	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		if e.t > s.last {
			s.last = e.t
		}
		switch e.kind {
		case evRangeArrive:
			s.workers[e.worker].queue = e.sp
			s.startChunk(e.worker, e.t)

		case evChunkDone:
			s.workers[e.worker].busy = false
			s.startChunk(e.worker, e.t)

		case evDirReply:
			st := &s.workers[e.worker]
			st.times.Wait += e.t - st.waitSince
			victim := e.victim
			if victim < 0 { // nothing left anywhere
				st.done = true
				st.doneAt = e.t
				continue
			}
			// Steal round trip to the victim (its link + ours).
			d := s.cluster.Machines[victim].Link.Transfer(s.opts.stealBytes()) +
				s.cluster.Machines[e.worker].Link.Transfer(s.opts.stealBytes())
			st.times.Comm += d
			// The grant is computed at arrival time (evStealGrant) so
			// concurrent thieves see each other's effects.
			s.push(event{t: e.t + d, kind: evStealGrant, worker: e.worker, victim: victim})

		case evStealGrant:
			st := &s.workers[e.worker]
			v := &s.workers[e.victim]
			n := v.queue.len()
			if v.busy {
				// The in-progress chunk is untouchable; steal from the
				// tail beyond it.
				if n > 0 {
					take := (n + s.k - 1) / len(s.workers)
					if take < 1 {
						take = 1
					}
					if take > n {
						take = n
					}
					st.queue = span{v.queue.hi - take, v.queue.hi}
					v.queue.hi -= take
					st.steals++
					s.startChunk(e.worker, e.t)
					continue
				}
			} else if n > 0 {
				take := (n + len(s.workers) - 1) / len(s.workers)
				st.queue = span{v.queue.hi - take, v.queue.hi}
				v.queue.hi -= take
				st.steals++
				s.startChunk(e.worker, e.t)
				continue
			}
			// Victim drained in the meantime: ask the directory again.
			s.lookupDirectory(e.worker, e.t)
		}
	}
	return nil
}

// startChunk claims the next 1/k of the local queue and computes it,
// or consults the directory when the queue is empty.
func (s *simulator) startChunk(w int, t float64) {
	st := &s.workers[w]
	if st.busy || st.done {
		return
	}
	n := st.queue.len()
	if n == 0 {
		s.lookupDirectory(w, t)
		return
	}
	take := (n + s.k - 1) / s.k
	chunk := span{st.queue.lo, st.queue.lo + take}
	st.queue.lo = chunk.hi
	work := workload.RangeCost(s.work, chunk.lo, chunk.hi)
	d := s.cluster.Machines[w].ComputeTime(s.params.BaseRate, t, work)
	st.times.Comp += d
	st.iterations += chunk.len()
	st.claims++
	st.busy = true
	s.push(event{t: t + d, kind: evChunkDone, worker: w})
}

// lookupDirectory asks the coordinator who currently holds the most
// remaining work. The reply names the victim, or −1 when every queue
// is empty (then this worker is finished).
func (s *simulator) lookupDirectory(w int, t float64) {
	st := &s.workers[w]
	d := s.cluster.Machines[w].Link.Transfer(s.opts.stealBytes()) * 2 // query + reply
	if d <= 0 {
		d = 1e-9 // zero-cost links must still advance time (no livelock)
	}
	st.waitSince = t
	victim := -1
	best := 0
	// Directory contents as of the *query*: stale by the round trip,
	// like a real distributed directory.
	for i := range s.workers {
		if i == w {
			continue
		}
		if n := s.workers[i].queue.len(); n > best {
			best = n
			victim = i
		}
	}
	s.push(event{t: t + d, kind: evDirReply, worker: w, victim: victim})
}
