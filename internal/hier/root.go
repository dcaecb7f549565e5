package hier

import (
	"fmt"
	"math"
	"sync"

	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// Root is the top-level allocator of the hierarchy. It owns the loop's
// iteration space, partitioned into one contiguous region per shard in
// proportion to the shard powers, and serves super-chunk fetches:
//
//   - a shard with unclaimed iterations left in its own region gets
//     the next GrantFraction of that remainder (floored at MinGrant);
//   - a drained shard steals from the victim holding the most
//     unclaimed iterations, taking StealFraction of that tail —
//     provided the victim holds at least StealThreshold, otherwise the
//     drained shard is told to stop.
//
// Because grants are fractions, the tail of every region stays at the
// root until late in the run, which is what makes stealing possible
// without ever revoking work a submaster already holds. Root is safe
// for concurrent use.
type Root struct {
	mu      sync.Mutex
	cfg     Config
	bus     *telemetry.Bus // nil unless SetTelemetry was called
	clock   func() float64 // event timestamps; nil means bus.Now
	regions []region
	fetches []int
	steals  []int
	total   int
}

// SetTelemetry attaches an event bus: the root publishes
// ShardStealStarted/ShardStealDone events for every steal attempt,
// stamped with the bus's wall-monotonic clock. A nil bus disables
// publishing.
func (r *Root) SetTelemetry(bus *telemetry.Bus) {
	r.SetTelemetryClock(bus, nil)
}

// SetTelemetryClock is SetTelemetry with an explicit clock, for
// callers whose events live on a different timeline (the discrete-
// event simulator stamps virtual seconds).
func (r *Root) SetTelemetryClock(bus *telemetry.Bus, now func() float64) {
	r.mu.Lock()
	r.bus = bus
	r.clock = now
	r.mu.Unlock()
}

// now returns the telemetry timestamp for an event; callers hold mu.
func (r *Root) now() float64 {
	if r.clock != nil {
		return r.clock()
	}
	return r.bus.Now()
}

type region struct {
	lo, next, hi int // [lo,hi) owned; [next,hi) unclaimed
}

// NewRoot partitions [0, n) among len(powers) shards and returns the
// allocator. cfg is resolved with the documented defaults; cfg.Shards
// is ignored in favour of len(powers).
func NewRoot(n int, powers []float64, cfg Config) (*Root, error) {
	if len(powers) == 0 {
		return nil, fmt.Errorf("hier: no shards")
	}
	if n < 0 {
		return nil, fmt.Errorf("hier: negative iteration count %d", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.Shards = len(powers)
	cfg = cfg.withDefaults(n, len(powers))
	cfg.Shards = len(powers)
	parts := Partition(n, powers)
	regions := make([]region, len(parts))
	for i, p := range parts {
		regions[i] = region{lo: p.Start, next: p.Start, hi: p.End}
	}
	return &Root{
		cfg:     cfg,
		regions: regions,
		fetches: make([]int, len(powers)),
		steals:  make([]int, len(powers)),
	}, nil
}

// Next returns the next super-chunk for the shard, or false when
// neither its own region nor any steal-eligible victim has work left.
// Once Next returns false for a shard it returns false forever after
// (regions only shrink), so a submaster may stop its workers.
func (r *Root) Next(shard int) (Range, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.regions) {
		return Range{}, false
	}
	reg := &r.regions[shard]
	if rem := reg.hi - reg.next; rem > 0 {
		size := r.grantSize(rem, r.cfg.GrantFraction)
		g := Range{Start: reg.next, End: reg.next + size}
		reg.next += size
		r.fetches[shard]++
		return g, true
	}
	// Steal from the shard with the largest unclaimed tail.
	r.bus.Publish(telemetry.Event{
		Kind: telemetry.ShardStealStarted, Worker: shard, Shard: shard,
		At: r.now(),
	})
	victim, rem := -1, 0
	for j := range r.regions {
		if j == shard {
			continue
		}
		if u := r.regions[j].hi - r.regions[j].next; u > rem {
			victim, rem = j, u
		}
	}
	if victim < 0 || rem < r.cfg.StealThreshold {
		return Range{}, false
	}
	size := r.grantSize(rem, r.cfg.StealFraction)
	v := &r.regions[victim]
	v.hi -= size
	r.fetches[shard]++
	r.steals[shard]++
	r.total++
	r.bus.Publish(telemetry.Event{
		Kind: telemetry.ShardStealDone, Worker: shard, Shard: victim,
		Start: v.hi, Size: size, At: r.now(),
	})
	return Range{Start: v.hi, End: v.hi + size}, true
}

// grantSize applies the fraction with the MinGrant floor, clipped to
// the remainder. Callers hold mu.
func (r *Root) grantSize(rem int, frac float64) int {
	size := int(math.Ceil(float64(rem) * frac))
	if size < r.cfg.MinGrant {
		size = r.cfg.MinGrant
	}
	if size > rem {
		size = rem
	}
	return size
}

// Remaining returns the number of iterations the root still holds.
func (r *Root) Remaining() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, reg := range r.regions {
		n += reg.hi - reg.next
	}
	return n
}

// Steals returns the total number of stolen super-chunks so far.
func (r *Root) Steals() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// ShardCounts returns how many super-chunks the shard fetched and how
// many of those were steals.
func (r *Root) ShardCounts(shard int) (fetches, steals int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if shard < 0 || shard >= len(r.fetches) {
		return 0, 0
	}
	return r.fetches[shard], r.steals[shard]
}

// RootScheme adapts the hierarchical root allocator to the sched
// interfaces, so a stock master (e.g. the net/rpc Master) can serve as
// the hierarchy's root: each "worker" of that master is a submaster,
// and every Policy.Next call returns one super-chunk. The scheme is
// distributed — the master gathers every submaster's aggregate ACP
// before partitioning — but it must be run with re-planning disabled:
// steals grant ranges out of order, which a mid-run re-plan (built on
// the flat masters' monotone `base` bookkeeping) would corrupt.
type RootScheme struct {
	Config Config
	// OnRoot, when non-nil, receives the allocator built by NewPolicy,
	// so the caller can read steal counts after the run.
	OnRoot func(*Root)
}

// Name implements sched.Scheme.
func (RootScheme) Name() string { return "HierRoot" }

// Distributed marks the scheme as power-driven: masters gather every
// shard's aggregate ACP before the partition is planned.
func (RootScheme) Distributed() bool { return true }

// NewPolicy implements sched.Scheme. cfg.Workers is the shard count;
// cfg.Powers (aggregate shard ACPs) drives the partition.
func (s RootScheme) NewPolicy(cfg sched.Config) (sched.Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	powers := cfg.Powers
	if powers == nil {
		powers = make([]float64, cfg.Workers)
		for i := range powers {
			powers[i] = 1
		}
	}
	root, err := NewRoot(cfg.Iterations, powers, s.Config)
	if err != nil {
		return nil, err
	}
	if s.OnRoot != nil {
		s.OnRoot(root)
	}
	return &rootPolicy{root: root}, nil
}

// rootPolicy exposes Root through sched.Policy. Request.Worker is the
// shard index.
type rootPolicy struct{ root *Root }

func (p *rootPolicy) Next(req sched.Request) (sched.Assignment, bool) {
	g, ok := p.root.Next(req.Worker)
	if !ok {
		return sched.Assignment{}, false
	}
	return sched.Assignment{Start: g.Start, Size: g.Size()}, true
}

func (p *rootPolicy) Remaining() int { return p.root.Remaining() }

// Stats assembles a shard's report entry, folding in the root's fetch
// and steal tallies for that shard: every hierarchy's Report.Shards.
func (r *Root) Stats(shard, workers, iters, chunks int, comp, finished float64) metrics.ShardStats {
	fetches, steals := r.ShardCounts(shard)
	return metrics.ShardStats{
		Shard:      shard,
		Workers:    workers,
		Iterations: iters,
		Chunks:     chunks,
		Fetches:    fetches,
		Steals:     steals,
		Comp:       comp,
		Finished:   finished,
	}
}
