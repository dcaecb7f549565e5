package hier

import (
	"context"
	"fmt"
	"sync"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/dispense"
	"loopsched/internal/exec"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// LocalRun executes a loop hierarchically inside one process: the
// workers are goroutines (exec.WorkerSpec emulated slaves), grouped
// into shards each driven by its own submaster goroutine, with the
// shared Root allocator handing out super-chunks and rebalancing by
// stealing. It is the shared-memory analogue of the RPC hierarchy —
// same partition, same steal policy, no wire.
type LocalRun struct {
	Scheme  sched.Scheme
	Workers []*exec.WorkerSpec
	// ACP is the availability model for distributed schemes.
	ACP acp.Model
	// Config tunes the hierarchy (zero value = defaults).
	Config Config
	// Trace, when non-nil, records each computed chunk with wall-clock
	// timestamps relative to Run's start.
	Trace *trace.Trace
	// Telemetry, when non-nil, receives live protocol events. Worker
	// ids in those events are run-global; Shard carries the shard
	// index.
	Telemetry *telemetry.Bus
}

// shardState is one submaster's bookkeeping, written by its goroutine
// and read by Run after all goroutines join.
type shardState struct {
	members  []int
	requests chan exec.ChannelRequest
	chunks   int
	iters    int
	finished float64
}

// Run executes body(i) exactly once for every iteration of the
// workload. Cancelling ctx stops the masters from handing out chunks;
// started iterations still complete.
func (l *LocalRun) Run(ctx context.Context, w workload.Workload, body func(i int)) (metrics.Report, error) {
	p := len(l.Workers)
	if p == 0 {
		return metrics.Report{}, fmt.Errorf("hier: no workers")
	}
	dist := sched.Distributed(l.Scheme)
	cfg := l.Config.withDefaults(w.Len(), p)

	run := &exec.Slaves{
		Workers: l.Workers, ACP: l.ACP, Workload: w, Body: body,
		Telemetry: l.Telemetry, Trace: l.Trace,
	}
	run.Begin(l.Scheme)
	powers, start := run.Powers, run.Start

	assignment := AssignShards(powers, cfg.Shards)
	shardPowers := make([]float64, len(assignment))
	shards := make([]*shardState, len(assignment))
	shardOf := make([]int, p)
	localOf := make([]int, p)
	for si, members := range assignment {
		shards[si] = &shardState{members: members, requests: make(chan exec.ChannelRequest)}
		for li, wi := range members {
			shardOf[wi] = si
			localOf[wi] = li
			if dist {
				a := l.ACP.ACP(powers[wi], 1+l.Workers[wi].Load())
				if a < 1 {
					a = 1
				}
				shardPowers[si] += float64(a)
			} else {
				shardPowers[si] += powers[wi]
			}
		}
	}
	root, err := NewRoot(w.Len(), shardPowers, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	root.SetTelemetry(l.Telemetry)

	join := run.Go(func(id int) (metrics.Times, int) {
		si := shardOf[id]
		return run.Slave(ctx, id, localOf[id], si, shards[si].requests)
	})

	errs := make([]error, len(shards))
	var mwg sync.WaitGroup
	for si := range shards {
		mwg.Add(1)
		go func(si int) {
			defer mwg.Done()
			errs[si] = l.submaster(ctx, root, si, shards[si], powers, dist, start)
			if errs[si] != nil {
				// Keep draining so the shard's workers can exit; the
				// channel is closed once they have all joined.
				go func() {
					for req := range shards[si].requests {
						req.Reply <- exec.ChannelReply{}
					}
				}()
			}
		}(si)
	}
	mwg.Wait()
	times, iters := join()
	for _, sh := range shards {
		close(sh.requests)
	}

	rep := metrics.Report{
		Scheme:   l.Scheme.Name(),
		Workload: w.Name(),
		Workers:  p,
		Tp:       time.Since(start).Seconds(),
		Steals:   root.Steals(),

		PerWorker:    times,
		Iterations:   iters,
		GrantLatency: run.WaitHist.Snapshot().Summarize(),
		CompLatency:  run.CompHist.Snapshot().Summarize(),
	}
	for si, sh := range shards {
		rep.Chunks += sh.chunks
		var comp float64
		for _, wi := range sh.members {
			comp += times[wi].Comp
		}
		rep.Shards = append(rep.Shards,
			shardStats(si, sh.members, sh.iters, sh.chunks, comp, sh.finished, root))
	}
	for _, e := range errs {
		if e != nil {
			return rep, e
		}
	}
	if rep.Iterations != w.Len() {
		return rep, fmt.Errorf("hier: executed %d of %d iterations", rep.Iterations, w.Len())
	}
	return rep, nil
}

// submaster drives one shard: it fetches super-chunks from the root
// and stages each on the shard's dispenser, so every super-chunk is a
// fresh plan from the freshest ACP reports (the hierarchy's adaptivity
// cadence).
func (l *LocalRun) submaster(ctx context.Context, root *Root, si int, sh *shardState, virtual []float64, dist bool, start time.Time) error {
	k := len(sh.members)
	powers := make([]float64, k)
	for li, wi := range sh.members {
		powers[li] = virtual[wi]
	}
	d := dispense.New(dispense.Config{Scheme: l.Scheme, Workers: k, Powers: powers, NoReplan: true})
	var pending []exec.ChannelRequest

	// Distributed submasters gather every member's first report before
	// the first plan, so it reflects real ACPs (master step 1(a),
	// applied per shard).
	for dist && !d.Gathered() {
		select {
		case req := <-sh.requests:
			d.Report(req.Worker, req.ACP)
			pending = append(pending, req)
		case <-ctx.Done():
			for _, req := range pending {
				req.Reply <- exec.ChannelReply{}
			}
			return ctx.Err()
		}
	}

	stopped := 0
	serve := func(req exec.ChannelRequest) error {
		d.Feedback(req.Worker, req.FbWork, req.FbElapsed)
		for {
			if a, ok, _ := d.Next(req.Worker, req.ACP); ok {
				sh.chunks++
				sh.iters += a.Size
				now := l.Telemetry.Now()
				l.Telemetry.Publish(telemetry.Event{
					Kind: telemetry.ChunkGranted, Worker: sh.members[req.Worker],
					Shard: si, Start: a.Start, Size: a.Size, ACP: req.ACP,
					Span: telemetry.SpanID(0, a.Start),
					At:   now, Seconds: now - req.At,
				})
				req.Reply <- exec.ChannelReply{Assign: a, OK: true}
				return nil
			}
			g, ok := root.Next(si)
			if !ok { // root dry
				stopped++
				req.Reply <- exec.ChannelReply{}
				return nil
			}
			if err := d.Stage(g.Start, g.Size()); err != nil {
				req.Reply <- exec.ChannelReply{}
				return err
			}
			// Each super-chunk is a fresh scheduling stage for the shard.
			l.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.StageAdvanced, Shard: si,
				Start: g.Start, Size: g.Size(), At: l.Telemetry.Now(),
			})
		}
	}
	for _, req := range pending {
		if err := serve(req); err != nil {
			return err
		}
	}
	for stopped < k {
		select {
		case req := <-sh.requests:
			if err := serve(req); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	sh.finished = time.Since(start).Seconds()
	return nil
}
