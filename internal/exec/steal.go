package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// DefaultStealWindow is the refill batch cap when Local.Window is
// unset: one trip to the policy under the refill lock yields up to
// this many chunks (fewer while chunks are large against the worker's
// share of what is left, see JobState.Refill), one executed immediately
// and the rest parked in the worker's deque for later pops or steals.
// It mirrors the wire path's credit window: larger windows amortise
// the lock but delay feedback and re-planning, which only see ACP at
// refill time.
const DefaultStealWindow = 8

func (l *Local) stealWindow() int {
	if l.Window > 0 {
		return l.Window
	}
	return DefaultStealWindow
}

// stealRun drives one single-job work-stealing execution over a
// JobState — the fleet-shareable core holding the per-worker deques,
// the policy under its amortised refill mutex, and the masterless
// granted/completed/drained termination accounting. stealRun adds only
// what a one-shot run needs on top: the worker goroutines themselves,
// their ACP probes, and per-worker timing for the report.
type stealRun struct {
	l    *Local
	w    workload.Workload
	body func(i int)
	p    int

	virtual func(i int) float64
	start   time.Time

	js *JobState
}

// runSteal executes the loop with per-worker Chase–Lev deques instead
// of a channel master. Each worker pops its own deque (LIFO), then
// scans victims (FIFO steal), and only when the whole system looks
// empty takes the refill lock to pull a fresh batch from the policy —
// so the serialised section runs once per window, not once per chunk.
func (l *Local) runSteal(ctx context.Context, w workload.Workload, body func(i int)) (metrics.Report, error) {
	p := len(l.Workers)
	var rep metrics.Report
	rep.Scheme = l.Scheme.Name()
	rep.Workload = w.Name()
	rep.Workers = p

	maxScale := 1
	for _, ws := range l.Workers {
		if ws.scale() > maxScale {
			maxScale = ws.scale()
		}
	}
	s := &stealRun{
		l: l, w: w, body: body, p: p,
		virtual: func(i int) float64 {
			return float64(maxScale) / float64(l.Workers[i].scale())
		},
	}

	// The paper's master gathers every worker's first ACP report
	// before planning (step 1(a)). With no master goroutine we take
	// the reports synchronously here — equivalent, since no work has
	// been granted yet.
	var initACP []int
	if sched.Distributed(l.Scheme) {
		initACP = make([]int, p)
		for i := 0; i < p; i++ {
			initACP[i] = l.ACP.ACP(s.virtual(i), 1+l.Workers[i].Load())
		}
	}
	var err error
	s.js, err = NewJobState(JobConfig{
		Scheme:        l.Scheme,
		Workload:      w,
		Workers:       p,
		Window:        l.stealWindow(),
		InitACP:       initACP,
		DisableReplan: l.DisableReplan,
		Telemetry:     l.Telemetry,
		Ledger:        l.Ledger,
	})
	if err != nil {
		return rep, err
	}

	s.start = time.Now()
	if l.Trace != nil {
		l.Trace.Scheme = l.Scheme.Name()
		l.Trace.Workload = w.Name()
		l.Trace.Workers = p
	}
	times := make([]metrics.Times, p)
	iters := make([]int64, p)
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			s.worker(ctx, id, &times[id], &iters[id])
		}(i)
	}
	wg.Wait()

	counts := s.js.Counts()
	rep.Tp = time.Since(s.start).Seconds()
	wait, comp := s.js.Latency()
	rep.GrantLatency = wait.Summarize()
	rep.CompLatency = comp.Summarize()
	rep.Chunks = counts.Chunks
	rep.Replans = counts.Replans
	rep.Steals = int(counts.Steals)
	for i := 0; i < p; i++ {
		rep.PerWorker = append(rep.PerWorker, times[i])
		rep.Iterations += int(iters[i])
	}
	if ctx.Err() != nil {
		return rep, ctx.Err()
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("exec: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// worker is one goroutine's acquire–execute loop: own pop, then steal,
// then refill, spinning (with Gosched) only in the terminal window
// where the policy is dry but granted chunks still sit in deques.
func (s *stealRun) worker(ctx context.Context, id int, times *metrics.Times, iters *int64) {
	l, bus, js := s.l, s.l.Telemetry, s.js
	spec := l.Workers[id]
	bus.Publish(telemetry.Event{
		Kind: telemetry.WorkerJoined, Worker: id,
		At: bus.Now(),
	})
	var fbWork, fbElapsed float64
	acpNow := l.ACP.ACP(s.virtual(id), 1+spec.Load())
	for {
		if ctx.Err() != nil {
			return
		}
		waitStart := time.Now()
		a, ok := js.Pop(id)
		if !ok {
			a, ok = js.Steal(id)
		}
		if !ok {
			acpNow = l.ACP.ACP(s.virtual(id), 1+spec.Load())
			a, _, ok = js.Refill(id, acpNow, fbWork, fbElapsed)
			fbWork, fbElapsed = 0, 0
		}
		if !ok {
			if js.Finished() {
				return
			}
			// Granted work is still in flight in other deques (or the
			// policy will yield more once someone reports): yield and
			// rescan rather than block.
			runtime.Gosched()
			continue
		}
		times.Wait += time.Since(waitStart).Seconds()
		compStart := time.Now()
		for it := a.Start; it < a.End(); it++ {
			for rep := 0; rep < spec.scale(); rep++ {
				s.body(it)
			}
		}
		fbWork = workload.RangeCost(s.w, a.Start, a.End())
		fbElapsed = time.Since(compStart).Seconds() // single reading: feedback == Comp == trace span
		times.Comp += fbElapsed
		*iters += int64(a.Size)
		js.Complete(id, a, acpNow, fbElapsed)
		if l.Trace != nil {
			begin := compStart.Sub(s.start).Seconds()
			l.Trace.Add(trace.Event{
				Worker: id,
				Start:  a.Start,
				Size:   a.Size,
				Begin:  begin,
				End:    begin + fbElapsed,
				ACP:    acpNow,
			})
		}
	}
}
