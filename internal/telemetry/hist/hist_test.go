package hist

import (
	"math"
	"testing"
	"unsafe"
)

func TestBucketEdges(t *testing.T) {
	cases := []float64{0, -1, 0.4e-9, 1e-9, 1.9e-9, 2e-9, 1e-6, 1.0, 3600.0}
	for _, sec := range cases {
		got := bucketOf(sec)
		// The expectation follows from the definition: bucket index is
		// the bit length of the duration in nanoseconds, clamped.
		ns := int64(sec * 1e9)
		if ns < 0 {
			ns = 0
		}
		want := 0
		for v := uint64(ns); v > 0; v >>= 1 {
			want++
		}
		if want >= NumBuckets {
			want = NumBuckets - 1
		}
		if got != want {
			t.Errorf("bucketOf(%g) = %d, want %d", sec, got, want)
		}
	}
}

func TestRecordAndSnapshot(t *testing.T) {
	var h Hist
	h.Record(1e-6)
	h.Record(1e-6)
	h.Record(1e-3)
	h.Record(0) // zero bucket, no sum contribution
	s := h.Snapshot()
	if s.Count != 4 {
		t.Fatalf("Count = %d, want 4", s.Count)
	}
	wantSum := 2*1e-6 + 1e-3
	if math.Abs(s.SumSeconds-wantSum) > 1e-9 {
		t.Errorf("SumSeconds = %g, want %g", s.SumSeconds, wantSum)
	}
	if s.Counts[0] != 1 {
		t.Errorf("zero bucket = %d, want 1", s.Counts[0])
	}
	if s.Counts[bucketOf(1e-6)] != 2 {
		t.Errorf("1µs bucket = %d, want 2", s.Counts[bucketOf(1e-6)])
	}
}

func TestNilSafety(t *testing.T) {
	var h *Hist
	h.Record(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Errorf("nil Hist snapshot Count = %d", s.Count)
	}
	var sh *Sharded
	sh.Record(0, 1)
	if s := sh.Snapshot(); s.Count != 0 {
		t.Errorf("nil Sharded snapshot Count = %d", s.Count)
	}
}

func TestShardedFoldsAndMerges(t *testing.T) {
	s := NewSharded(4)
	for w := 0; w < 4; w++ {
		s.Record(w, 1e-4)
	}
	s.Record(-3, 1e-4) // out of range: folded, not dropped
	s.Record(17, 1e-4)
	snap := s.Snapshot()
	if snap.Count != 6 {
		t.Fatalf("merged Count = %d, want 6", snap.Count)
	}
	if math.Abs(snap.SumSeconds-6e-4) > 1e-9 {
		t.Errorf("merged SumSeconds = %g, want 6e-4", snap.SumSeconds)
	}
}

func TestShardPadding(t *testing.T) {
	if sz := unsafe.Sizeof(paddedHist{}); sz%64 != 0 {
		t.Errorf("paddedHist is %d bytes, want a 64-byte multiple", sz)
	}
}

func TestQuantileInterpolation(t *testing.T) {
	var h Hist
	// 100 samples all in the [64ns, 128ns) bucket.
	for i := 0; i < 100; i++ {
		h.Record(100e-9)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		got := s.Quantile(q)
		if got < 64e-9 || got > 128e-9 {
			t.Errorf("Quantile(%g) = %g, want within [64ns, 128ns)", q, got)
		}
	}
	// p50 should land below p99 within the bucket.
	if !(s.Quantile(0.5) < s.Quantile(0.99)) {
		t.Errorf("quantiles not monotonic: p50=%g p99=%g", s.Quantile(0.5), s.Quantile(0.99))
	}
}

func TestQuantileAcrossBuckets(t *testing.T) {
	var h Hist
	for i := 0; i < 90; i++ {
		h.Record(1e-6) // ~1µs
	}
	for i := 0; i < 10; i++ {
		h.Record(1e-3) // ~1ms tail
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 > 10e-6 {
		t.Errorf("p50 = %g, want ~1µs", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 100e-6 {
		t.Errorf("p99 = %g, want in the ms tail", p99)
	}
	sum := s.Summarize()
	if sum.Count != 100 || sum.P50 > sum.P95 || sum.P95 > sum.P99 {
		t.Errorf("summary not monotonic: %+v", sum)
	}
}

func TestQuantileEmptyAndBounds(t *testing.T) {
	var s Snapshot
	if s.Quantile(0.5) != 0 {
		t.Error("empty snapshot quantile should be 0")
	}
	if s.Mean() != 0 {
		t.Error("empty snapshot mean should be 0")
	}
	var h Hist
	h.Record(1)
	snap := h.Snapshot()
	if snap.Quantile(-1) != snap.Quantile(0) || snap.Quantile(2) != snap.Quantile(1) {
		t.Error("quantile arguments should clamp to [0, 1]")
	}
}

func TestUpperBounds(t *testing.T) {
	if UpperBound(0) != 1e-9 {
		t.Errorf("UpperBound(0) = %g, want 1ns", UpperBound(0))
	}
	if !math.IsInf(UpperBound(NumBuckets-1), 1) {
		t.Error("last bucket should be unbounded")
	}
	for i := 1; i < NumBuckets-1; i++ {
		if UpperBound(i) != 2*UpperBound(i-1) {
			t.Errorf("bucket %d bound %g is not double bucket %d's %g", i, UpperBound(i), i-1, UpperBound(i-1))
		}
	}
}

func TestMergeAccumulates(t *testing.T) {
	var a, b Hist
	a.Record(1e-6)
	b.Record(1e-3)
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 2 {
		t.Errorf("merged Count = %d, want 2", sa.Count)
	}
	if math.Abs(sa.SumSeconds-(1e-6+1e-3)) > 1e-9 {
		t.Errorf("merged SumSeconds = %g", sa.SumSeconds)
	}
}

// TestRecordNMatchesRecord pins RecordN to n Record calls of the same
// duration, bucket for bucket and in the integer-nanosecond sum, for
// real latencies and the clock artefacts that count into the zero
// bucket; n ≤ 0 records nothing.
func TestRecordNMatchesRecord(t *testing.T) {
	for _, v := range []float64{1.25e-4, 3.7e-7, 2.5, 0, -1e-3, math.NaN()} {
		for _, n := range []int{-3, 0, 1, 2, 7, 1000} {
			var one, batch Hist
			for range n {
				one.Record(v)
			}
			batch.RecordN(v, n)
			if got, want := batch.Snapshot(), one.Snapshot(); got != want {
				t.Errorf("RecordN(%g, %d) = %+v, want %+v", v, n, got, want)
			}
			ones, batches := NewSharded(3), NewSharded(3)
			for range n {
				ones.Record(5, v)
			}
			batches.RecordN(5, v, n)
			if got, want := batches.Snapshot(), ones.Snapshot(); got != want {
				t.Errorf("Sharded.RecordN(5, %g, %d) = %+v, want %+v", v, n, got, want)
			}
		}
	}
}
