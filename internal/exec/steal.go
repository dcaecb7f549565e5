package exec

import (
	"context"
	"runtime"
	"time"

	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// DefaultStealWindow is the refill batch cap when Local.Window is
// unset: one trip to the policy under the refill lock yields up to
// this many chunks (fewer while chunks are large against the worker's
// share of what is left, see JobState.Refill), one executed immediately
// and the rest parked in the worker's deque for later pops or steals.
// Larger windows amortise the lock but delay feedback and re-planning,
// which only see ACP at refill time. A wire worker with no window set
// asks for this many chunks on its first request, before it has
// measured a round trip to size its asks by (DESIGN.md §9).
const DefaultStealWindow = 8

// runSteal executes the loop with per-worker Chase–Lev deques instead
// of a channel master, as one single-job run over a JobState — the
// fleet-shareable core holding the deques, the dispenser under its
// amortised refill mutex, and the masterless granted/completed/drained
// termination accounting. Each worker pops its own deque (LIFO), then
// scans victims (FIFO steal), and only when the whole system looks
// empty takes the refill lock to pull a fresh batch from the policy —
// so the serialised section runs once per window, not once per chunk.
func (l *Local) runSteal(ctx context.Context, run *Slaves) (metrics.Report, error) {
	var rep metrics.Report
	run.Begin(l.Scheme)
	p := len(l.Workers)

	// The paper's master gathers every worker's first ACP report
	// before planning (step 1(a)). With no master goroutine we take
	// the reports synchronously here — equivalent, since no work has
	// been granted yet.
	var initACP []int
	if sched.Distributed(l.Scheme) {
		initACP = make([]int, p)
		for i := range initACP {
			initACP[i] = run.acpNow(i)
		}
	}
	js, err := NewJobState(JobConfig{
		Scheme:        l.Scheme,
		Workload:      run.Workload,
		Workers:       p,
		Window:        l.Window,
		InitACP:       initACP,
		Powers:        run.Powers,
		DisableReplan: l.DisableReplan,
		Telemetry:     l.Telemetry,
		Ledger:        l.Ledger,
	})
	if err != nil {
		return rep, err
	}
	run.Start = time.Now() // planning is setup, not T_p

	rep.PerWorker, rep.Iterations = run.Go(func(id int) (metrics.Times, int) {
		return run.stealSlave(ctx, id, js)
	})()

	counts := js.Counts()
	wait, comp := js.Latency()
	rep.GrantLatency = wait.Summarize()
	rep.CompLatency = comp.Summarize()
	rep.Chunks = counts.Chunks
	rep.Replans = counts.Replans
	rep.Steals = int(counts.Steals)
	return rep, ctx.Err()
}

// stealSlave is one goroutine's acquire–execute loop: own pop, then
// steal, then refill, spinning (with Gosched) only in the terminal
// window where the policy is dry but granted chunks still sit in
// deques.
func (r *Slaves) stealSlave(ctx context.Context, id int, js *JobState) (times metrics.Times, iters int) {
	bus := r.Telemetry
	bus.Publish(telemetry.Event{
		Kind: telemetry.WorkerJoined, Worker: id,
		At: bus.Now(),
	})
	var fbWork, fbElapsed float64
	acpNow := r.acpNow(id)
	for ctx.Err() == nil {
		waitStart := time.Now()
		a, ok := js.Pop(id)
		if !ok {
			a, ok = js.Steal(id)
		}
		if !ok {
			acpNow = r.acpNow(id)
			a, _, ok = js.Refill(id, acpNow, fbWork, fbElapsed)
			fbWork, fbElapsed = 0, 0
		}
		if !ok {
			if js.Finished() {
				break
			}
			// Granted work is still in flight in other deques (or the
			// policy will yield more once someone reports): yield and
			// rescan rather than block.
			runtime.Gosched()
			continue
		}
		times.Wait += time.Since(waitStart).Seconds()
		fbWork, fbElapsed = r.compute(id, acpNow, a)
		times.Comp += fbElapsed
		iters += a.Size
		js.Complete(id, a, acpNow, fbElapsed)
	}
	return times, iters
}
