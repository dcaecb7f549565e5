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
	tally    exec.ChannelTally
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

	// One channel master per shard: it stages every super-chunk the root
	// grants on the shard's dispenser, so each is a fresh plan from the
	// freshest ACP reports (the hierarchy's adaptivity cadence).
	errs := make([]error, len(shards))
	var mwg sync.WaitGroup
	for si, sh := range shards {
		shardVirtual := make([]float64, len(sh.members))
		for li, wi := range sh.members {
			shardVirtual[li] = powers[wi]
		}
		m := exec.ChannelMaster{
			Config: dispense.Config{
				Scheme: l.Scheme, Workers: len(sh.members), Powers: shardVirtual, NoReplan: true,
			},
			Requests:  sh.requests,
			Telemetry: l.Telemetry,
			Shard:     si,
			Members:   sh.members,
			More: func() (int, int, bool) {
				g, ok := root.Next(si)
				if ok {
					l.Telemetry.Publish(telemetry.Event{
						Kind: telemetry.StageAdvanced, Shard: si,
						Start: g.Start, Size: g.Size(), At: l.Telemetry.Now(),
					})
				}
				return g.Start, g.Size(), ok
			},
		}
		mwg.Add(1)
		go func() {
			defer mwg.Done()
			sh.tally, errs[si] = m.Serve(ctx)
			if errs[si] == nil {
				sh.finished = time.Since(start).Seconds()
			}
		}()
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
		rep.Chunks += sh.tally.Chunks
		var comp float64
		for _, wi := range sh.members {
			comp += times[wi].Comp
		}
		rep.Shards = append(rep.Shards,
			root.Stats(si, len(sh.members), sh.tally.Iterations, sh.tally.Chunks, comp, sh.finished))
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
