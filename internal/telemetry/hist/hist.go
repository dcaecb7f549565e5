// Package hist provides fixed-bucket log₂ latency histograms for the
// chunk hot path. A Hist is a flat array of atomic counters — recording
// a sample is two atomic adds and never allocates, so grant and
// completion paths can record into one unconditionally. Sharded pads
// one Hist per worker onto its own cache lines, so a fleet hammering
// Record never bounces a bucket line between cores.
//
// Buckets are powers of two of nanoseconds: bucket i counts samples
// whose duration in nanoseconds needs i bits, i.e. lies in
// [2^(i-1), 2^i) ns (bucket 0 is the sub-nanosecond/zero bucket, the
// last bucket is unbounded). 42 buckets span 1 ns to ~36 min, which
// covers every latency the scheduler can produce — from a channel
// round trip to a straggling super-chunk — with ≤ 2× relative error,
// plenty for p50/p95/p99 scheduling decisions.
package hist

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the fixed bucket count of every Hist.
const NumBuckets = 42

// Hist is one log₂ histogram. The zero value is ready to use; all
// methods are safe for concurrent use and nil-safe.
type Hist struct {
	buckets  [NumBuckets]atomic.Uint64
	sumNanos atomic.Int64
}

// bucketOf maps a duration in seconds to its bucket index.
//
//lint:loopsched-hotpath
func bucketOf(seconds float64) int {
	ns := int64(seconds * 1e9)
	if ns < 0 {
		ns = 0
	}
	i := bits.Len64(uint64(ns))
	if i >= NumBuckets {
		i = NumBuckets - 1
	}
	return i
}

// Record adds one sample. Negative and NaN durations count into the
// zero bucket (they are clock artefacts, not real latencies, but
// dropping them would break count reconciliation). Nil-safe; never
// allocates.
//
//lint:loopsched-hotpath
func (h *Hist) Record(seconds float64) { h.RecordN(seconds, 1) }

// RecordN adds n samples of the same duration at the cost of one:
// the sum is kept in integer nanoseconds, so the histogram ends exactly
// as after n Record calls. n ≤ 0 records nothing. Nil-safe; never
// allocates.
//
//lint:loopsched-hotpath
func (h *Hist) RecordN(seconds float64, n int) {
	if h == nil || n <= 0 {
		return
	}
	if !(seconds > 0) { // NaN or <= 0
		h.buckets[0].Add(uint64(n))
		return
	}
	ns := int64(seconds * 1e9)
	h.buckets[bucketOf(seconds)].Add(uint64(n))
	h.sumNanos.Add(ns * int64(n))
}

// Snapshot copies the histogram's current state. Buckets are read one
// atomic at a time, so a snapshot taken mid-record may be off by the
// in-flight sample; successive snapshots are monotonic per bucket.
func (h *Hist) Snapshot() Snapshot {
	var s Snapshot
	if h == nil {
		return s
	}
	for i := range h.buckets {
		n := h.buckets[i].Load()
		s.Counts[i] = n
		s.Count += n
	}
	s.SumSeconds = float64(h.sumNanos.Load()) / 1e9
	return s
}

// histPad rounds Hist up to a 64-byte multiple so adjacent shards in a
// Sharded never share a cache line (42×8 bucket bytes + 8 sum bytes =
// 344; +40 = 384 = 6 lines).
const histPad = 40

type paddedHist struct {
	Hist
	_ [histPad]byte
}

// Sharded is a per-worker sharded histogram: worker i records into its
// own cache-padded Hist, and Snapshot merges all shards. Use it where
// many workers record concurrently (completion paths); a single-writer
// site (a master's grant loop) can use a plain Hist.
type Sharded struct {
	shards []paddedHist
}

// NewSharded returns a histogram with n padded shards (min 1).
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	return &Sharded{shards: make([]paddedHist, n)}
}

// Record adds one sample to the worker's shard. Out-of-range worker
// ids fold onto a shard rather than dropping the sample, so counts
// still reconcile. Nil-safe; never allocates.
//
//lint:loopsched-hotpath
func (s *Sharded) Record(worker int, seconds float64) { s.RecordN(worker, seconds, 1) }

// RecordN adds n samples of the same duration to the worker's shard,
// as Record adds one. Nil-safe; never allocates.
//
//lint:loopsched-hotpath
func (s *Sharded) RecordN(worker int, seconds float64, n int) {
	if s == nil || len(s.shards) == 0 {
		return
	}
	if worker < 0 || worker >= len(s.shards) {
		worker = ((worker % len(s.shards)) + len(s.shards)) % len(s.shards)
	}
	s.shards[worker].RecordN(seconds, n)
}

// Snapshot merges every shard into one Snapshot.
func (s *Sharded) Snapshot() Snapshot {
	var out Snapshot
	if s == nil {
		return out
	}
	for i := range s.shards {
		out.Merge(s.shards[i].Snapshot())
	}
	return out
}

// Snapshot is a point-in-time copy of a histogram, mergeable and
// quantile-queryable off the hot path.
type Snapshot struct {
	Counts     [NumBuckets]uint64
	Count      uint64
	SumSeconds float64
}

// Merge adds another snapshot's samples into s.
func (s *Snapshot) Merge(o Snapshot) {
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.SumSeconds += o.SumSeconds
}

// UpperBound returns bucket i's exclusive upper bound in seconds
// (+Inf for the last bucket). These are the Prometheus `le` edges.
func UpperBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)) / 1e9
}

// lowerBound returns bucket i's inclusive lower bound in seconds.
func lowerBound(i int) float64 {
	if i <= 0 {
		return 0
	}
	return float64(uint64(1)<<uint(i-1)) / 1e9
}

// Quantile estimates the q-quantile (0 < q <= 1) in seconds by linear
// interpolation within the covering bucket. An empty snapshot reports
// 0. The estimate's relative error is bounded by the bucket width
// (≤ 2×).
func (s Snapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	if rank < 1 {
		rank = 1
	}
	cum := 0.0
	for i, n := range s.Counts {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			lo, hi := lowerBound(i), UpperBound(i)
			if math.IsInf(hi, 1) {
				return lo // unbounded tail: report the bucket floor
			}
			frac := (rank - cum) / float64(n)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return lowerBound(NumBuckets - 1)
}

// Summary condenses a snapshot to the percentiles the reports print.
type Summary struct {
	Count      uint64
	SumSeconds float64
	P50        float64
	P95        float64
	P99        float64
}

// Summarize computes the report summary for the snapshot.
func (s Snapshot) Summarize() Summary {
	return Summary{
		Count:      s.Count,
		SumSeconds: s.SumSeconds,
		P50:        s.Quantile(0.50),
		P95:        s.Quantile(0.95),
		P99:        s.Quantile(0.99),
	}
}

// Mean returns the snapshot's mean sample in seconds (0 when empty).
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.SumSeconds / float64(s.Count)
}
