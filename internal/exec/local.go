// Package exec runs parallel loops for real — not simulated — under
// any self-scheduling scheme: Local drives goroutine workers through
// an in-process master (the shared-memory analogue of the paper's MPI
// program), and Master/Worker in rpc.go speak net/rpc over TCP, which
// is the stdlib stand-in for the paper's mpich master–slave processes.
package exec

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/acp"
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

type localRequest struct {
	worker    int
	acp       int
	fbWork    float64 // cost of the previous chunk (0 = none)
	fbElapsed float64 // its measured execution time
	at        float64 // send instant on the telemetry clock (0 = no bus)
	reply     chan localReply
}

type localReply struct {
	assign sched.Assignment
	ok     bool
}

// Run executes body(i) exactly once for every iteration i of the
// workload, scheduling with the configured scheme, and reports
// measured times. body must be safe for concurrent invocation on
// distinct iterations.
//
// Deprecated: Run is the legacy context-free adapter; use the public
// loopsched.Run(ctx, RunSpec{Backend: BackendLocal, …}), which
// validates the spec, wires telemetry and honours cancellation (or
// RunContext when driving a Local directly).
func (l *Local) Run(w workload.Workload, body func(i int)) (metrics.Report, error) {
	return l.RunContext(context.Background(), w, body)
}

// RunContext is Run with cancellation: when ctx is cancelled the
// master stops handing out chunks, the workers drain, and the call
// returns ctx's error. Iterations already started still complete
// (the body is never interrupted mid-iteration).
func (l *Local) RunContext(ctx context.Context, w workload.Workload, body func(i int)) (metrics.Report, error) {
	p := len(l.Workers)
	if p == 0 {
		return metrics.Report{}, fmt.Errorf("exec: no workers")
	}
	switch l.Engine {
	case "", EngineChannel:
	case EngineSteal:
		return l.runSteal(ctx, w, body)
	default:
		return metrics.Report{}, fmt.Errorf("exec: unknown local engine %q (want %q or %q)", l.Engine, EngineChannel, EngineSteal)
	}
	dist := sched.Distributed(l.Scheme)

	maxScale := 1
	for _, ws := range l.Workers {
		if ws.scale() > maxScale {
			maxScale = ws.scale()
		}
	}
	virtual := func(i int) float64 {
		return float64(maxScale) / float64(l.Workers[i].scale())
	}

	requests := make(chan localRequest)
	var wg sync.WaitGroup
	times := make([]metrics.Times, p)
	iters := make([]int64, p)
	waitHist := hist.NewSharded(p)
	compHist := hist.NewSharded(p)

	start := time.Now()
	if l.Trace != nil {
		l.Trace.Scheme = l.Scheme.Name()
		l.Trace.Workload = w.Name()
		l.Trace.Workers = p
	}
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			spec := l.Workers[id]
			reply := make(chan localReply, 1)
			l.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.WorkerJoined, Worker: id,
				At: l.Telemetry.Now(),
			})
			var fbWork, fbElapsed float64
			for {
				a := l.ACP.ACP(virtual(id), 1+spec.Load())
				reqAt := l.Telemetry.Now()
				l.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.ChunkRequested, Worker: id,
					ACP: a, At: reqAt,
				})
				waitStart := time.Now()
				select {
				case requests <- localRequest{worker: id, acp: a,
					fbWork: fbWork, fbElapsed: fbElapsed, at: reqAt, reply: reply}:
				case <-ctx.Done():
					return
				}
				r := <-reply // an accepted request is always answered
				wait := time.Since(waitStart).Seconds()
				times[id].Wait += wait
				if !r.ok {
					return
				}
				waitHist.Record(id, wait)
				compStart := time.Now()
				for it := r.assign.Start; it < r.assign.End(); it++ {
					for rep := 0; rep < spec.scale(); rep++ {
						body(it)
					}
				}
				fbWork = workload.RangeCost(w, r.assign.Start, r.assign.End())
				// One reading serves the feedback loop, the Comp metric
				// and the trace span: separate time.Since calls drift
				// apart by the work between them, so Feedback would see
				// an elapsed time that never equals the reported Comp.
				fbElapsed = time.Since(compStart).Seconds()
				times[id].Comp += fbElapsed
				compHist.Record(id, fbElapsed)
				atomic.AddInt64(&iters[id], int64(r.assign.Size))
				l.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.ChunkCompleted, Worker: id,
					Start: r.assign.Start, Size: r.assign.Size, ACP: a,
					Span: telemetry.SpanID(0, r.assign.Start),
					At:   l.Telemetry.Now(), Seconds: fbElapsed,
				})
				if l.Trace != nil {
					begin := compStart.Sub(start).Seconds()
					l.Trace.Add(trace.Event{
						Worker: id,
						Start:  r.assign.Start,
						Size:   r.assign.Size,
						Begin:  begin,
						End:    begin + fbElapsed,
						ACP:    a,
					})
				}
			}
		}(i)
	}

	rep, err := l.master(ctx, w, p, dist, requests)
	wg.Wait()
	close(requests) // lets a failed master's drain goroutine exit
	rep.Tp = time.Since(start).Seconds()
	rep.GrantLatency = waitHist.Snapshot().Summarize()
	rep.CompLatency = compHist.Snapshot().Summarize()
	rep.Scheme = l.Scheme.Name()
	rep.Workload = w.Name()
	rep.Workers = p
	for i := 0; i < p; i++ {
		rep.PerWorker = append(rep.PerWorker, times[i])
		rep.Iterations += int(iters[i])
	}
	if err != nil {
		return rep, err
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("exec: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// master services requests until the loop is exhausted and every
// worker has been told to stop, or the context is cancelled.
func (l *Local) master(ctx context.Context, w workload.Workload, p int, dist bool, requests chan localRequest) (metrics.Report, error) {
	var rep metrics.Report
	liveACP := make([]int, p)
	planACP := make([]int, p)
	base := 0

	plan := func() (sched.Policy, error) {
		cfg := sched.Config{Iterations: w.Len() - base, Workers: p}
		if dist {
			powers := make([]float64, p)
			for i, a := range liveACP {
				if a < 1 {
					a = 1
				}
				powers[i] = float64(a)
			}
			cfg.Powers = powers
		}
		pol, err := l.Scheme.NewPolicy(cfg)
		if err != nil {
			return nil, err
		}
		copy(planACP, liveACP)
		return sched.Offset(pol, base), nil
	}

	var policy sched.Policy
	var pending []localRequest

	// Distributed masters gather every worker's first report before
	// planning (paper master step 1(a)).
	if dist {
		seen := make([]bool, p)
		n := 0
		for n < p {
			select {
			case req := <-requests:
				liveACP[req.worker] = req.acp
				if !seen[req.worker] {
					seen[req.worker] = true
					n++
				}
				pending = append(pending, req)
			case <-ctx.Done():
				for _, req := range pending {
					req.reply <- localReply{}
				}
				return rep, ctx.Err()
			}
		}
	}
	var err error
	policy, err = plan()
	if err != nil {
		// Drain workers so they exit.
		go func() {
			for req := range requests {
				req.reply <- localReply{}
			}
		}()
		return rep, err
	}

	stopped := 0
	serve := func(req localRequest) {
		liveACP[req.worker] = req.acp
		if fb, ok := policy.(sched.FeedbackPolicy); ok && req.fbElapsed > 0 {
			fb.Feedback(req.worker, req.fbWork, req.fbElapsed)
		}
		if dist && !l.DisableReplan && acp.MajorityChanged(planACP, liveACP) {
			if p2, err2 := plan(); err2 == nil {
				policy = p2
				rep.Replans++
				l.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.StageAdvanced, Worker: req.worker,
					At: l.Telemetry.Now(),
				})
			}
		}
		a, ok := policy.Next(sched.Request{Worker: req.worker, ACP: float64(req.acp)})
		if !ok {
			stopped++
			req.reply <- localReply{}
			return
		}
		base = a.End()
		rep.Chunks++
		now := l.Telemetry.Now()
		l.Telemetry.Publish(telemetry.Event{
			Kind: telemetry.ChunkGranted, Worker: req.worker,
			Start: a.Start, Size: a.Size, ACP: req.acp,
			Span: telemetry.SpanID(0, a.Start),
			At:   now, Seconds: now - req.at,
		})
		req.reply <- localReply{assign: a, ok: true}
	}
	for _, req := range pending {
		serve(req)
	}
	for stopped < p {
		select {
		case req := <-requests:
			serve(req)
		case <-ctx.Done():
			return rep, ctx.Err()
		}
	}
	return rep, nil
}
