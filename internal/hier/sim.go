package hier

import (
	"context"
	"fmt"

	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/sim"
	"loopsched/internal/workload"
)

// Simulate runs the workload on the cluster under the two-level
// runtime: cfg.Shards submasters each drive their share of the
// machines with the scheme, fetching super-chunks from the root
// allocator over the RootLink hop. Every submaster and the root are the
// flat simulator's master (sim.RunShards), as every hier-rpc shard is
// an exec.Master: workers speak the paper's protocol to their shard's
// single server, and each shard fetches its next super-chunk while its
// workers chew the current one, piggy-backing their results. Waiting a
// fetch fails to hide surfaces in the workers' T_wait. Deterministic,
// like sim.Run.
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
	cfg = cfg.withDefaults(w.Len(), len(c.Machines))

	// Shard the machines balancing static power, then size each
	// shard's partition by its aggregate ACP at t = 0 (the §3.1 model
	// lifted one level up; for simple schemes the virtual power is the
	// only signal, as in the flat planner).
	shards := AssignShards(c.Powers(), cfg.Shards)
	powers := make([]float64, len(shards))
	for si, members := range shards {
		for _, wi := range members {
			m := c.Machines[wi]
			if sched.Distributed(scheme) {
				powers[si] += float64(max(1, p.ACP.ACP(m.Power, m.RunQueue(0))))
			} else {
				powers[si] += m.Power
			}
		}
	}
	root, err := NewRoot(w.Len(), powers, cfg)
	if err != nil {
		return metrics.Report{}, err
	}
	// Steal events carry virtual timestamps, like everything else here.
	var now float64
	root.SetTelemetryClock(p.Telemetry, func() float64 { return now })
	rep, err := sim.RunShards(ctx, c, scheme, w, p, shards, cfg.RootLink,
		func(shard int, at float64) (sched.Assignment, bool) {
			now = at
			g, ok := root.Next(shard)
			return sched.Assignment{Start: g.Start, Size: g.Size()}, ok
		})
	rep.Steals = root.Steals()
	for i, s := range rep.Shards {
		rep.Shards[i] = root.Stats(s.Shard, s.Workers, s.Iterations, s.Chunks, s.Comp, s.Finished)
	}
	return rep, err
}
