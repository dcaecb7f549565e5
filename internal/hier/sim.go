package hier

import (
	"container/heap"
	"context"
	"fmt"
	"sort"

	"loopsched/internal/dispense"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/sim"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// The hierarchical simulator mirrors internal/sim's protocol model one
// level up: workers speak the paper's serial request–reply protocol to
// their shard's submaster (each submaster is an independent single
// server, so master contention divides by K), and every submaster is a
// double-buffered client of the root — it fetches the next super-chunk
// over the RootLink hop while its workers chew the current one, piggy-
// backing the shard's accumulated results on each fetch. Waiting that
// a fetch fails to hide surfaces in the workers' T_wait, exactly where
// the flat simulator charges master queueing.

// event kinds.
const (
	hevWReq     = iota // worker request arrived at its submaster
	hevWService        // submaster finished servicing one request
	hevWReply          // submaster reply reached the worker
	hevWCompute        // worker finished its chunk
	hevRReq            // submaster fetch arrived at the root
	hevRService        // root finished servicing one fetch
	hevRReply          // root grant (or stop) reached the submaster
)

type hevent struct {
	t      float64
	seq    int64
	kind   int
	worker int // worker id (hevW*) or shard id (hevR*)
	assign sched.Assignment
	grant  Range
	stop   bool
	bytes  float64 // inbound payload carried by a request/fetch
}

type heventQueue []hevent

func (q heventQueue) Len() int { return len(q) }
func (q heventQueue) Less(i, j int) bool {
	if q[i].t != q[j].t {
		return q[i].t < q[j].t
	}
	return q[i].seq < q[j].seq
}
func (q heventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *heventQueue) Push(x any)   { *q = append(*q, x.(hevent)) }
func (q *heventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

type hpending struct {
	worker  int
	arrival float64
	acp     int
	bytes   float64
}

type hworker struct {
	times      metrics.Times
	lastChunk  int
	reqSent    float64
	done       bool
	finishedAt float64
	iterations int
	local      int // index within the shard
}

type hsub struct {
	members      []int
	d            *dispense.Dispenser // stages one super-chunk at a time
	buffered     []Range
	fetching     bool
	rootDone     bool
	busy         bool
	queue        []hpending
	pendingBytes float64
	iterations   int
	chunks       int
	comp         float64
	finished     float64
}

type hsim struct {
	cluster  sim.Cluster
	params   sim.Params
	cfg      Config
	work     workload.Workload
	dist     bool
	root     *Root
	shardOf  []int
	subs     []hsub
	workers  []hworker
	shardTr  []*trace.Trace // per-shard traces, merged into params.Trace
	mbw      float64        // submaster/root NIC bandwidth, bytes/s
	events   heventQueue
	rootBusy bool
	rootQ    []hpending // worker field holds the shard id
	now      float64
	seq      int64
	lastTime float64
	steps    int64
}

// Simulate runs the workload on the cluster under the two-level
// runtime: cfg.Shards submasters each drive their share of the
// machines with the scheme, fetching super-chunks from the root
// allocator over the RootLink hop. Deterministic, like sim.Run.
//
// Params.Prefetch, CollectAtEnd and SharedBus are flat-runtime knobs
// and are rejected here: the submaster↔root pipeline is always on
// (that is the point of the hierarchy), and workers always piggy-back.
func Simulate(ctx context.Context, c sim.Cluster, scheme sched.Scheme, w workload.Workload, p sim.Params, cfg Config) (metrics.Report, error) {
	if err := c.Validate(); err != nil {
		return metrics.Report{}, err
	}
	if p.Prefetch || p.CollectAtEnd || p.SharedBus {
		return metrics.Report{}, fmt.Errorf("hier: Prefetch/CollectAtEnd/SharedBus are flat-simulator knobs")
	}
	if err := cfg.Validate(); err != nil {
		return metrics.Report{}, err
	}
	p = p.WithDefaults()
	n := len(c.Machines)
	cfg = cfg.withDefaults(w.Len(), n)
	if p.Trace != nil {
		p.Trace.Scheme = scheme.Name()
		p.Trace.Workload = w.Name()
		p.Trace.Workers = n
	}

	s := &hsim{
		cluster: c,
		params:  p,
		cfg:     cfg,
		work:    w,
		dist:    sched.Distributed(scheme),
		shardOf: make([]int, n),
		workers: make([]hworker, n),
		mbw:     c.MasterBandwidth,
	}
	if s.mbw <= 0 {
		s.mbw = sim.Mbit100
	}

	// Shard the machines balancing static power, then size each
	// shard's partition by its aggregate ACP at t = 0 (the §3.1 model
	// lifted one level up; for simple schemes the virtual power is the
	// only signal, as in the flat planner).
	shards := AssignShards(c.Powers(), cfg.Shards)
	s.subs = make([]hsub, len(shards))
	shardPowers := make([]float64, len(shards))
	for si, members := range shards {
		s.subs[si].members = members
		// The local plan takes worker powers from the latest reports,
		// which is where the distributed schemes' load adaptivity lives
		// at this level (re-plan cadence = one super-chunk); the
		// static-weight schemes see the machines' virtual powers.
		powers := make([]float64, len(members))
		for li, wi := range members {
			powers[li] = c.Machines[wi].Power
			s.shardOf[wi] = si
			s.workers[wi].local = li
			if s.dist {
				shardPowers[si] += float64(max(1, s.acpAt(wi, 0)))
			} else {
				shardPowers[si] += c.Machines[wi].Power
			}
		}
		s.subs[si].d = dispense.New(dispense.Config{
			Scheme: scheme, Workers: len(members), Powers: powers, NoReplan: true,
		})
	}
	root, err := NewRoot(w.Len(), shardPowers, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	s.root = root
	// Steal events carry virtual timestamps, like everything else here.
	root.SetTelemetryClock(p.Telemetry, func() float64 { return s.now })

	// Each shard records its own trace; they are merged into the
	// caller's at the end, mirroring how the RPC hierarchy combines
	// shard traces shipped back by the submasters.
	if p.Trace != nil {
		s.shardTr = make([]*trace.Trace, len(shards))
		for si := range shards {
			s.shardTr[si] = &trace.Trace{Scheme: scheme.Name(), Workload: w.Name(), Workers: n}
		}
	}

	if err := s.run(ctx); err != nil {
		return metrics.Report{}, err
	}
	for _, tr := range s.shardTr {
		p.Trace.Merge(tr)
	}

	// Terminal idle: early-stopped workers sit in the barrier until the
	// whole loop finishes (the paper's T_wait signal).
	for i := range s.workers {
		if idle := s.lastTime - s.workers[i].finishedAt; idle > 0 && s.workers[i].done {
			s.workers[i].times.Wait += idle
		}
	}
	report := metrics.Report{
		Scheme:   scheme.Name(),
		Workload: w.Name(),
		Workers:  n,
		Tp:       s.lastTime,
		Steals:   root.Steals(),
	}
	for si := range s.subs {
		sub := &s.subs[si]
		report.Chunks += sub.chunks
		report.Shards = append(report.Shards,
			root.Stats(si, len(sub.members), sub.iterations, sub.chunks, sub.comp, sub.finished))
	}
	for i := range s.workers {
		report.PerWorker = append(report.PerWorker, s.workers[i].times)
		report.Iterations += s.workers[i].iterations
	}
	if report.Iterations != w.Len() {
		return report, fmt.Errorf("hier: executed %d of %d iterations", report.Iterations, w.Len())
	}
	return report, nil
}

func (s *hsim) push(e hevent) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

func (s *hsim) acpAt(w int, t float64) int {
	m := s.cluster.Machines[w]
	return s.params.ACP.ACP(m.Power, m.RunQueue(t))
}

// acpOf is worker w's latest reported ACP, as its submaster holds it.
func (s *hsim) acpOf(w int) int {
	return s.subs[s.shardOf[w]].d.ACP(s.workers[w].local)
}

// sendRequest models worker w transmitting a request (plus previous
// results) to its submaster.
func (s *hsim) sendRequest(w int, t float64) {
	m := s.cluster.Machines[w]
	st := &s.workers[w]
	bytes := s.params.RequestBytes
	var inbound float64
	if st.lastChunk > 0 {
		inbound = float64(st.lastChunk) * s.params.BytesPerIter
		bytes += inbound
	}
	d := m.Link.Transfer(bytes)
	st.times.Comm += d
	st.reqSent = t
	st.lastChunk = 0
	s.push(hevent{t: t + d, kind: hevWReq, worker: w, bytes: inbound})
}

// launchFetch starts a super-chunk fetch for the shard, carrying the
// results accumulated since the previous fetch.
func (s *hsim) launchFetch(si int, t float64) {
	sub := &s.subs[si]
	if sub.fetching || sub.rootDone {
		return
	}
	sub.fetching = true
	bytes := s.params.RequestBytes + sub.pendingBytes
	inbound := sub.pendingBytes
	sub.pendingBytes = 0
	d := s.cfg.RootLink.Transfer(bytes)
	s.push(hevent{t: t + d, kind: hevRReq, worker: si, bytes: inbound})
}

func (s *hsim) run(ctx context.Context) error {
	heap.Init(&s.events)
	for si := range s.subs {
		s.launchFetch(si, 0)
	}
	for w := range s.cluster.Machines {
		s.sendRequest(w, 0)
	}
	if err := ctx.Err(); err != nil { // pre-cancelled: simulate nothing
		return err
	}
	for s.events.Len() > 0 {
		if s.steps++; s.steps&1023 == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		e := heap.Pop(&s.events).(hevent)
		s.now = e.t
		if e.t > s.lastTime {
			s.lastTime = e.t
		}
		switch e.kind {
		case hevWReq:
			w := e.worker
			si := s.shardOf[w]
			sub := &s.subs[si]
			a := s.acpAt(w, s.workers[w].reqSent)
			first := sub.d.Report(s.workers[w].local, a)
			if first {
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.WorkerJoined, Worker: w, Shard: si,
					ACP: a, At: e.t,
				})
			}
			s.params.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.ChunkRequested, Worker: w, Shard: si,
				ACP: a, At: e.t,
			})
			sub.pendingBytes += e.bytes
			sub.queue = append(sub.queue, hpending{worker: w, arrival: e.t, acp: a, bytes: e.bytes})
			if s.dist && first && sub.d.Gathered() {
				// Serve the initial shard queue fastest-first
				// (master step 1(a), per shard).
				sort.SliceStable(sub.queue, func(i, j int) bool {
					return sub.queue[i].acp > sub.queue[j].acp
				})
			}
			if err := s.serviceShard(si); err != nil {
				return err
			}

		case hevWService:
			w := e.worker
			si := s.shardOf[w]
			s.subs[si].busy = false
			m := s.cluster.Machines[w]
			d := m.Link.Transfer(s.params.ReplyBytes)
			s.workers[w].times.Comm += d
			s.push(hevent{t: e.t + d, kind: hevWReply, worker: w, assign: e.assign, stop: e.stop})
			if err := s.serviceShard(si); err != nil {
				return err
			}

		case hevWReply:
			w := e.worker
			st := &s.workers[w]
			if e.stop {
				st.done = true
				st.finishedAt = e.t
				si := s.shardOf[w]
				if e.t > s.subs[si].finished {
					s.subs[si].finished = e.t
				}
				continue
			}
			m := s.cluster.Machines[w]
			work := workload.RangeCost(s.work, e.assign.Start, e.assign.End())
			d := m.ComputeTime(s.params.BaseRate, e.t, work)
			st.times.Comp += d
			s.subs[s.shardOf[w]].comp += d
			if s.shardTr != nil {
				s.shardTr[s.shardOf[w]].Add(trace.Event{
					Worker: w,
					Start:  e.assign.Start,
					Size:   e.assign.Size,
					Begin:  e.t,
					End:    e.t + d,
					ACP:    s.acpOf(w),
				})
			}
			s.params.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.ChunkCompleted, Worker: w, Shard: s.shardOf[w],
				Start: e.assign.Start, Size: e.assign.Size,
				ACP: s.acpOf(w), At: e.t + d, Seconds: d,
			})
			st.iterations += e.assign.Size
			st.lastChunk = e.assign.Size
			s.subs[s.shardOf[w]].iterations += e.assign.Size
			s.push(hevent{t: e.t + d, kind: hevWCompute, worker: w})

		case hevWCompute:
			s.sendRequest(e.worker, e.t)

		case hevRReq:
			s.rootQ = append(s.rootQ, hpending{worker: e.worker, arrival: e.t, bytes: e.bytes})
			s.serviceRoot()

		case hevRService:
			s.rootBusy = false
			d := s.cfg.RootLink.Transfer(s.params.ReplyBytes)
			s.push(hevent{t: e.t + d, kind: hevRReply, worker: e.worker, grant: e.grant, stop: e.stop})
			s.serviceRoot()

		case hevRReply:
			si := e.worker
			sub := &s.subs[si]
			sub.fetching = false
			if e.stop {
				sub.rootDone = true
			} else {
				sub.buffered = append(sub.buffered, e.grant)
			}
			if err := s.serviceShard(si); err != nil {
				return err
			}
		}
	}
	return nil
}

// serviceRoot pops the head fetch if the root is idle and schedules
// its completion after the receive plus scheduling overhead.
func (s *hsim) serviceRoot() {
	if s.rootBusy || len(s.rootQ) == 0 {
		return
	}
	req := s.rootQ[0]
	s.rootQ = s.rootQ[1:]
	s.rootBusy = true
	recv := s.params.MasterOverhead + req.bytes/s.mbw
	g, ok := s.root.Next(req.worker)
	s.push(hevent{t: s.now + recv, kind: hevRService, worker: req.worker, grant: g, stop: !ok})
}

// serviceShard drives one submaster: serve the head worker request if
// the submaster is idle and has work (or a stop) to hand out, pulling
// buffered super-chunks into the local policy and keeping the next
// fetch in flight (double buffering).
func (s *hsim) serviceShard(si int) error {
	sub := &s.subs[si]
	for {
		if sub.busy || len(sub.queue) == 0 {
			return nil
		}
		if s.dist && !sub.d.Gathered() {
			return nil // still gathering the shard's first reports
		}
		req := sub.queue[0]
		assign, ok, _ := sub.d.Next(s.workers[req.worker].local, req.acp)
		if !ok {
			if len(sub.buffered) > 0 {
				g := sub.buffered[0]
				sub.buffered = sub.buffered[1:]
				if err := sub.d.Stage(g.Start, g.Size()); err != nil {
					return err
				}
				// Each super-chunk is a fresh scheduling stage for the shard.
				s.params.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.StageAdvanced, Shard: si,
					Start: g.Start, Size: g.Size(), At: s.now,
				})
				if len(sub.buffered) == 0 {
					s.launchFetch(si, s.now)
				}
				continue // retry with the fresh policy
			}
			if !sub.rootDone {
				s.launchFetch(si, s.now)
				return nil // head request waits for the fetch
			}
			// Nothing anywhere: stop this worker.
			sub.queue = sub.queue[1:]
			sub.busy = true
			done := s.now + s.params.MasterOverhead + req.bytes/s.mbw
			s.workers[req.worker].times.Wait += done - req.arrival
			s.push(hevent{t: done, kind: hevWService, worker: req.worker, stop: true})
			return nil
		}
		sub.queue = sub.queue[1:]
		sub.busy = true
		sub.chunks++
		done := s.now + s.params.MasterOverhead + req.bytes/s.mbw
		s.workers[req.worker].times.Wait += done - req.arrival
		s.params.Telemetry.Publish(telemetry.Event{
			Kind: telemetry.ChunkGranted, Worker: req.worker, Shard: si,
			Start: assign.Start, Size: assign.Size, ACP: req.acp,
			At: done, Seconds: done - req.arrival,
		})
		s.push(hevent{t: done, kind: hevWService, worker: req.worker, assign: assign})
		return nil
	}
}
