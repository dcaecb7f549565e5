// Package hier is the hierarchical (two-level) sharded scheduling
// runtime: a root coordinator partitions the loop among K submasters
// in proportion to each shard's aggregate available computing power —
// the paper's §3.1 power model lifted one level up — and each
// submaster runs any registered self-scheduling scheme over its own
// workers with purely local chunk calculation (the distributed
// chunk-calculation idea of Eleliemy & Ciorba, arXiv:2101.07050).
//
// The root does not hand a shard its whole partition at once: it
// grants it in geometrically shrinking super-chunks (the re-split
// policy), so the tail of every partition stays at the root. When a
// shard drains while another still holds a large unclaimed tail, the
// root rebalances by *stealing*: the fast shard's next fetch is served
// from the end of the slowest shard's partition. Steal threshold and
// re-split fractions are configurable via Config.
//
// Two runtimes share this logic:
//
//   - Simulate — a deterministic discrete-event model where the
//     submaster hop costs an extra link latency (sim.go);
//   - Submaster — an exec.Master for its workers whose stages are the
//     super-chunks it fetches, pipelined, from the root: an exec.Master
//     over RootScheme, reached over TCP or, in one process, over memory
//     links (rpc.go).
package hier

import (
	"fmt"
	"math"
	"sort"

	"loopsched/internal/sim"
)

// Config tunes the hierarchy. The zero value picks the documented
// defaults; every field is optional.
type Config struct {
	// Shards is K, the number of submasters. 0 means ⌈√workers⌉,
	// which balances master service load (workers/K per submaster)
	// against root fan-in (K clients).
	Shards int
	// GrantFraction is the re-split policy: the fraction of a shard's
	// remaining partition the root hands out per fetch. 0 means 0.5
	// (factoring at the super-chunk level).
	GrantFraction float64
	// StealFraction is how much of the victim's unclaimed tail a steal
	// takes. 0 means 0.5.
	StealFraction float64
	// StealThreshold is the minimum number of unclaimed iterations a
	// victim must hold for a steal to be worthwhile; below it the
	// drained shard simply stops. 0 means 2×MinGrant.
	StealThreshold int
	// MinGrant floors the super-chunk size so the root is not flooded
	// with tiny fetches. 0 means max(1, ⌈N/(64·K)⌉).
	MinGrant int
	// RootLink models the submaster↔root hop in the simulator: every
	// fetch pays its latency on top of the usual protocol costs. The
	// zero value means a 0.5 ms, 100 Mbit backbone link.
	RootLink sim.Link
}

// DefaultShards returns the default submaster count for p workers.
func DefaultShards(p int) int {
	if p <= 1 {
		return 1
	}
	k := int(math.Ceil(math.Sqrt(float64(p))))
	if k > p {
		k = p
	}
	return k
}

// withDefaults resolves the documented zero-value defaults for a run
// of n iterations on `workers` slaves.
func (c Config) withDefaults(n, workers int) Config {
	if c.Shards <= 0 {
		c.Shards = DefaultShards(workers)
	}
	if c.Shards > workers {
		c.Shards = workers
	}
	if c.GrantFraction <= 0 || c.GrantFraction > 1 {
		c.GrantFraction = 0.5
	}
	if c.StealFraction <= 0 || c.StealFraction > 1 {
		c.StealFraction = 0.5
	}
	if c.MinGrant <= 0 {
		c.MinGrant = (n + 64*c.Shards - 1) / (64 * c.Shards)
		if c.MinGrant < 1 {
			c.MinGrant = 1
		}
	}
	if c.StealThreshold <= 0 {
		c.StealThreshold = 2 * c.MinGrant
	}
	if c.RootLink == (sim.Link{}) {
		c.RootLink = sim.Link{Latency: 0.0005, Bandwidth: sim.Mbit100}
	}
	return c
}

// Validate reports whether the configuration is usable as given
// (before defaulting).
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("hier: negative shard count %d", c.Shards)
	}
	if c.GrantFraction < 0 || c.GrantFraction > 1 {
		return fmt.Errorf("hier: grant fraction %g outside [0,1]", c.GrantFraction)
	}
	if c.StealFraction < 0 || c.StealFraction > 1 {
		return fmt.Errorf("hier: steal fraction %g outside [0,1]", c.StealFraction)
	}
	if c.StealThreshold < 0 || c.MinGrant < 0 {
		return fmt.Errorf("hier: negative steal threshold or min grant")
	}
	return nil
}

// Range is a half-open iteration interval [Start, End).
type Range struct {
	Start, End int
}

// Size returns the number of iterations in the range.
func (r Range) Size() int { return r.End - r.Start }

// Partition splits [0, n) into len(powers) contiguous regions with
// sizes proportional to the powers (largest-remainder rounding, so the
// sizes sum to n exactly). A zero or negative power is treated as the
// smallest positive share so every shard owns at least part of the
// loop when n allows.
func Partition(n int, powers []float64) []Range {
	k := len(powers)
	out := make([]Range, k)
	if k == 0 || n <= 0 {
		return out
	}
	var total float64
	for _, p := range powers {
		if p <= 0 {
			p = 1
		}
		total += p
	}
	sizes := make([]int, k)
	fracs := make([]float64, k)
	assigned := 0
	for i, p := range powers {
		if p <= 0 {
			p = 1
		}
		exact := float64(n) * p / total
		sizes[i] = int(exact)
		fracs[i] = exact - float64(sizes[i])
		assigned += sizes[i]
	}
	// Hand the leftover iterations to the largest fractional parts
	// (ties to the lower shard index, for determinism).
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for r := 0; r < n-assigned; r++ {
		sizes[order[r%k]]++
	}
	start := 0
	for i := range out {
		out[i] = Range{Start: start, End: start + sizes[i]}
		start = out[i].End
	}
	return out
}

// AssignShards distributes workers (identified by index into powers)
// across k shards, balancing aggregate power greedily: workers are
// taken in decreasing-power order and each goes to the currently
// lightest shard. Deterministic; every shard receives at least one
// worker when k ≤ len(powers). Members are returned sorted.
func AssignShards(powers []float64, k int) [][]int {
	if k < 1 {
		k = 1
	}
	if k > len(powers) {
		k = len(powers)
	}
	order := make([]int, len(powers))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return powers[order[a]] > powers[order[b]] })
	shards := make([][]int, k)
	agg := make([]float64, k)
	for _, w := range order {
		best := 0
		for s := 1; s < k; s++ {
			// Prefer the lightest shard; break power ties by member
			// count, then index, so assignment is stable.
			if agg[s] < agg[best] ||
				(agg[s] == agg[best] && len(shards[s]) < len(shards[best])) {
				best = s
			}
		}
		shards[best] = append(shards[best], w)
		agg[best] += powers[w]
	}
	for s := range shards {
		sort.Ints(shards[s])
	}
	return shards
}
