// Package exec runs parallel loops for real — not simulated — under
// any self-scheduling scheme: Local drives goroutine workers through
// an in-process master (the shared-memory analogue of the paper's MPI
// program), and Master/Worker in rpc.go speak the chunk protocol over
// TCP — net/rpc or the binary framing of internal/wire — the stand-in
// for the paper's mpich master–slave processes.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/dispense"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// WorkerSpec emulates one heterogeneous slave inside a single process.
type WorkerSpec struct {
	// WorkScale repeats each iteration's body this many times,
	// emulating a machine 1/WorkScale as fast (1 = full speed).
	WorkScale int
	// Load is an externally adjustable run-queue surrogate: the
	// number of competing processes beyond the loop itself. Workers
	// report ACP = model.ACP(V, 1+Load) with V = 1/WorkScale relative
	// to the slowest worker. Mutate it with AddLoad.
	load atomic.Int64
}

// AddLoad adjusts the emulated external load (may go negative deltas;
// the floor is zero). The clamp is a CompareAndSwap loop so concurrent
// adjusters compose: a plain Add-then-Store(0) could overwrite another
// goroutine's delta that landed between the add and the store, or
// resurrect a stale negative floor.
func (w *WorkerSpec) AddLoad(delta int) {
	for {
		cur := w.load.Load()
		next := cur + int64(delta)
		if next < 0 {
			next = 0
		}
		if w.load.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Load returns the current emulated external load.
func (w *WorkerSpec) Load() int { return int(w.load.Load()) }

func (w *WorkerSpec) scale() int {
	if w.WorkScale < 1 {
		return 1
	}
	return w.WorkScale
}

// Local executes a loop with one goroutine per worker and a
// channel-based master, faithfully implementing the paper's protocol:
// idle workers request work (attaching their ACP), the master answers
// with an iteration range from the scheme's policy and re-plans when a
// majority of ACPs changed.
type Local struct {
	Scheme  sched.Scheme
	Workers []*WorkerSpec
	// ACP is the availability model for distributed schemes.
	ACP acp.Model
	// DisableReplan turns off the majority re-plan (ablation).
	DisableReplan bool
	// Trace, when non-nil, records each computed chunk with
	// wall-clock timestamps relative to Run's start.
	Trace *trace.Trace
	// Telemetry, when non-nil, receives live protocol events
	// (requests, grants, completions, replans). Independent of Trace.
	Telemetry *telemetry.Bus
	// Engine selects the in-process runtime: EngineChannel (the
	// default, also chosen by "") drives one master goroutine over an
	// unbuffered channel exactly as the paper's protocol reads;
	// EngineSteal runs per-worker Chase–Lev deques with batched policy
	// refills (see internal/steal and docs/LOCAL.md).
	Engine string
	// Window caps how many chunks one steal-engine refill pulls from
	// the policy in a single trip under the refill lock (<=0 means
	// DefaultStealWindow). Ignored by the channel engine.
	Window int
	// Ledger requests the scheduling-step ledger for steal-engine
	// refills: one fetch-and-add claims the whole batch, no refill
	// mutex. Empty uses DefaultLedger (the LOOPSCHED_LEDGER environment
	// variable); schemes that are not step-deterministic silently keep
	// the policy path. Ignored by the channel engine.
	Ledger LedgerMode
}

// Local engine names for Local.Engine.
const (
	EngineChannel = "channel"
	EngineSteal   = "steal"
)

// VirtualPowers derives V_i for each worker spec: the slowest worker
// has power 1 and the rest scale up, mirroring the paper's testbed
// power normalisation.
func VirtualPowers(workers []*WorkerSpec) []float64 {
	maxScale := 1
	for _, w := range workers {
		if w.scale() > maxScale {
			maxScale = w.scale()
		}
	}
	out := make([]float64, len(workers))
	for i, w := range workers {
		out[i] = float64(maxScale) / float64(w.scale())
	}
	return out
}

// ChannelRequest is one in-process slave's demand for work, sent to
// its (sub)master over an unbuffered channel: the paper's request
// message with the previous chunk's measured cost piggy-backed.
type ChannelRequest struct {
	Worker    int     // the id the master knows the slave by
	ACP       int     // the slave's A_i at send time
	FbWork    float64 // cost of the previous chunk (0 = none)
	FbElapsed float64 // its measured execution time
	At        float64 // send instant on the telemetry clock (0 = no bus)
	Reply     chan ChannelReply
}

// ChannelReply answers a ChannelRequest; OK false is the stop message.
type ChannelReply struct {
	Assign sched.Assignment
	OK     bool
}

// Slaves is what the goroutine slaves of one in-process run share.
// Local's two engines and hier.LocalRun's shards all start their
// workers through it, so the probe–request–execute loop exists once.
type Slaves struct {
	Workers   []*WorkerSpec
	ACP       acp.Model
	Workload  workload.Workload
	Body      func(i int)
	Telemetry *telemetry.Bus
	Trace     *trace.Trace

	Powers []float64 // VirtualPowers(Workers)
	Start  time.Time
	// WaitHist and CompHist collect request-to-grant and per-chunk
	// compute latency (shard = run-global worker id).
	WaitHist, CompHist *hist.Sharded
}

// Begin stamps the run's start and labels its trace.
func (r *Slaves) Begin(scheme sched.Scheme) {
	p := len(r.Workers)
	r.Powers = VirtualPowers(r.Workers)
	r.WaitHist, r.CompHist = hist.NewSharded(p), hist.NewSharded(p)
	r.Start = time.Now()
	if r.Trace != nil {
		r.Trace.Scheme = scheme.Name()
		r.Trace.Workload = r.Workload.Name()
		r.Trace.Workers = p
	}
}

// Go starts slave(id) on one goroutine per worker. The returned join
// waits for them all and returns each worker's measured times and the
// iterations they executed in total.
func (r *Slaves) Go(slave func(id int) (metrics.Times, int)) (join func() ([]metrics.Times, int)) {
	times := make([]metrics.Times, len(r.Workers))
	done := make([]int, len(r.Workers))
	var wg sync.WaitGroup
	for i := range r.Workers {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			times[id], done[id] = slave(id)
		}(i)
	}
	return func() ([]metrics.Times, int) {
		wg.Wait()
		iters := 0
		for _, n := range done {
			iters += n
		}
		return times, iters
	}
}

// acpNow is worker id's A_i under its current emulated load.
func (r *Slaves) acpNow(id int) int {
	return r.ACP.ACP(r.Powers[id], 1+r.Workers[id].Load())
}

// compute executes chunk g on worker id, emulating its WorkScale, and
// returns the chunk's cost and measured time for the feedback loop.
func (r *Slaves) compute(id, acpNow int, g sched.Assignment) (work, elapsed float64) {
	scale := r.Workers[id].scale()
	compStart := time.Now()
	for it := g.Start; it < g.End(); it++ {
		for n := 0; n < scale; n++ {
			r.Body(it)
		}
	}
	work = workload.RangeCost(r.Workload, g.Start, g.End())
	// One reading serves the feedback loop, the Comp metric and the
	// trace span: separate time.Since calls drift apart by the work
	// between them, so Feedback would see an elapsed time that never
	// equals the reported Comp.
	elapsed = time.Since(compStart).Seconds()
	if r.Trace != nil {
		begin := compStart.Sub(r.Start).Seconds()
		r.Trace.Add(trace.Event{
			Worker: id,
			Start:  g.Start,
			Size:   g.Size,
			Begin:  begin,
			End:    begin + elapsed,
			ACP:    acpNow,
		})
	}
	return work, elapsed
}

// Slave is the paper's slave loop for worker id against a channel
// master: probe the load, request with A_i and the previous chunk's
// cost, execute the reply, until the master says stop or ctx ends.
// slot is the id its master knows it by (shard-local under a
// submaster) and shard labels its events. It returns the worker's
// measured times and executed iteration count.
func (r *Slaves) Slave(ctx context.Context, id, slot, shard int, requests chan<- ChannelRequest) (times metrics.Times, iters int) {
	bus := r.Telemetry
	reply := make(chan ChannelReply, 1)
	bus.Publish(telemetry.Event{
		Kind: telemetry.WorkerJoined, Worker: id, Shard: shard,
		At: bus.Now(),
	})
	var fbWork, fbElapsed float64
	for {
		a := r.acpNow(id)
		reqAt := bus.Now()
		bus.Publish(telemetry.Event{
			Kind: telemetry.ChunkRequested, Worker: id, Shard: shard,
			ACP: a, At: reqAt,
		})
		waitStart := time.Now()
		select {
		case requests <- ChannelRequest{Worker: slot, ACP: a,
			FbWork: fbWork, FbElapsed: fbElapsed, At: reqAt, Reply: reply}:
		case <-ctx.Done():
			return times, iters
		}
		rep := <-reply // an accepted request is always answered
		wait := time.Since(waitStart).Seconds()
		times.Wait += wait
		if !rep.OK {
			return times, iters
		}
		r.WaitHist.Record(id, wait)
		g := rep.Assign
		fbWork, fbElapsed = r.compute(id, a, g)
		times.Comp += fbElapsed
		r.CompHist.Record(id, fbElapsed)
		iters += g.Size
		bus.Publish(telemetry.Event{
			Kind: telemetry.ChunkCompleted, Worker: id, Shard: shard,
			Start: g.Start, Size: g.Size, ACP: a,
			Span: telemetry.SpanID(0, g.Start),
			At:   bus.Now(), Seconds: fbElapsed,
		})
	}
}

// RunContext executes body(i) exactly once for every iteration i of
// the workload, scheduling with the configured scheme, and reports
// measured times. body must be safe for concurrent invocation on
// distinct iterations. When ctx is cancelled the master stops handing
// out chunks, the workers drain, and the call returns ctx's error. Iterations already started still complete
// (the body is never interrupted mid-iteration).
func (l *Local) RunContext(ctx context.Context, w workload.Workload, body func(i int)) (metrics.Report, error) {
	p := len(l.Workers)
	if p == 0 {
		return metrics.Report{}, fmt.Errorf("exec: no workers")
	}
	run := &Slaves{
		Workers: l.Workers, ACP: l.ACP, Workload: w, Body: body,
		Telemetry: l.Telemetry, Trace: l.Trace,
	}
	var rep metrics.Report
	var err error
	switch l.Engine {
	case "", EngineChannel:
		run.Begin(l.Scheme)
		requests := make(chan ChannelRequest)
		join := run.Go(func(id int) (metrics.Times, int) {
			return run.Slave(ctx, id, id, 0, requests)
		})
		staged := false
		var tally ChannelTally
		tally, err = ChannelMaster{
			Config: dispense.Config{
				Scheme: l.Scheme, Workers: p, Powers: run.Powers, NoReplan: l.DisableReplan,
			},
			Requests:  requests,
			Telemetry: l.Telemetry,
			More: func() (start, size int, ok bool) { // the whole loop, once
				ok, staged = !staged, true
				return 0, w.Len(), ok
			},
		}.Serve(ctx)
		rep.Chunks, rep.Replans = tally.Chunks, tally.Replans
		rep.PerWorker, rep.Iterations = join()
		close(requests) // lets a failed master's drain goroutine exit
		rep.GrantLatency = run.WaitHist.Snapshot().Summarize()
		rep.CompLatency = run.CompHist.Snapshot().Summarize()
	case EngineSteal:
		rep, err = l.runSteal(ctx, run)
	default:
		return metrics.Report{}, fmt.Errorf("exec: unknown local engine %q (want %q or %q)", l.Engine, EngineChannel, EngineSteal)
	}
	rep.Tp = time.Since(run.Start).Seconds()
	rep.Scheme = l.Scheme.Name()
	rep.Workload = w.Name()
	rep.Workers = p
	if err != nil {
		return rep, err
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("exec: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// ChannelMaster is the in-process master: one goroutine answering the
// ChannelRequests of one group of slaves from one dispenser. Local
// runs one over the whole loop; hier.LocalRun runs one per shard.
type ChannelMaster struct {
	// Config plans for the Config.Workers slaves sending on Requests.
	Config   dispense.Config
	Requests chan ChannelRequest
	// More is asked for the next range to stage whenever the staged
	// one is drained; ok false is final and stops the asking slave. It
	// runs between a request and its reply: it may take a lock or
	// publish a stage event, never wait on a slave (DESIGN.md §9).
	More func() (start, size int, ok bool)
	// Telemetry (nil allowed) receives the grant and re-plan events,
	// labelled with Shard and Members[slot], the slot's run-global id
	// (nil Members: the slot itself).
	Telemetry *telemetry.Bus
	Shard     int
	Members   []int
}

// ChannelTally is what one ChannelMaster handed out.
type ChannelTally struct{ Chunks, Iterations, Replans int }

// Serve answers requests until every slave has been told to stop, or
// ctx ends. On an error it stops the slaves it already holds and keeps
// answering stop until the caller, having joined its slaves, closes
// Requests.
func (m ChannelMaster) Serve(ctx context.Context) (t ChannelTally, err error) {
	d := dispense.New(m.Config)
	bus := m.Telemetry
	var pending []ChannelRequest
	defer func() {
		t.Replans = d.Replans()
		if err == nil {
			return
		}
		for _, req := range pending {
			req.Reply <- ChannelReply{}
		}
		go func() {
			for req := range m.Requests {
				req.Reply <- ChannelReply{}
			}
		}()
	}()
	// Distributed masters gather every slave's first report before
	// planning (paper master step 1(a)).
	for sched.Distributed(m.Config.Scheme) && !d.Gathered() {
		select {
		case req := <-m.Requests:
			d.Report(req.Worker, req.ACP)
			pending = append(pending, req)
		case <-ctx.Done():
			return t, ctx.Err()
		}
	}
	for stopped := 0; stopped < m.Config.Workers; {
		var req ChannelRequest
		if len(pending) > 0 {
			req, pending = pending[0], pending[1:]
		} else {
			select {
			case req = <-m.Requests:
			case <-ctx.Done():
				return t, ctx.Err()
			}
		}
		id := req.Worker
		if m.Members != nil {
			id = m.Members[id]
		}
		d.Feedback(req.Worker, req.FbWork, req.FbElapsed)
		a, ok, replanned := d.Next(req.Worker, req.ACP)
		if replanned {
			bus.Publish(telemetry.Event{
				Kind: telemetry.StageAdvanced, Worker: id, Shard: m.Shard,
				At: bus.Now(),
			})
		}
		for !ok {
			start, size, more := m.More()
			if !more {
				break
			}
			if err := d.Stage(start, size); err != nil {
				req.Reply <- ChannelReply{}
				return t, err
			}
			a, ok, _ = d.Next(req.Worker, req.ACP)
		}
		if !ok {
			stopped++
			req.Reply <- ChannelReply{}
			continue
		}
		t.Chunks++
		t.Iterations += a.Size
		now := bus.Now()
		bus.Publish(telemetry.Event{
			Kind: telemetry.ChunkGranted, Worker: id, Shard: m.Shard,
			Start: a.Start, Size: a.Size, ACP: req.ACP,
			Span: telemetry.SpanID(0, a.Start),
			At:   now, Seconds: now - req.At,
		})
		req.Reply <- ChannelReply{Assign: a, OK: true}
	}
	return t, nil
}
