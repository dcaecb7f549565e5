package hist

import (
	"sort"
	"testing"

	"loopsched/internal/hotpath"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable.
var hotGuards = map[string]func(t *testing.T){
	"(*Hist).Record":     histRecordGuard,
	"(*Hist).RecordN":    histRecordGuard,
	"(*Sharded).Record":  shardedRecordGuard,
	"(*Sharded).RecordN": shardedRecordGuard,
}

// TestHotPathGuardTable pins hotGuards to the annotation set.
func TestHotPathGuardTable(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	missing, stale, err := hotpath.TableErrors(".", names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range missing {
		t.Errorf("annotated hot function %s has no alloc guard; add a hotGuards entry", name)
	}
	for _, name := range stale {
		t.Errorf("hotGuards entry %s matches no annotated function; remove it or annotate", name)
	}
}

// TestHotPathAllocGuards runs every guard in the table.
func TestHotPathAllocGuards(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, hotGuards[name])
	}
}

// histRecordGuard: every grant and completion records a latency — a
// request retiring a batch records its chunks' in one RecordN — so the
// record path must never touch the heap, live or nil histogram.
func histRecordGuard(t *testing.T) {
	var h Hist
	if avg := testing.AllocsPerRun(1000, func() { h.Record(1.25e-4) }); avg > 0 {
		t.Errorf("Record allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { h.RecordN(1.25e-4, 64) }); avg > 0 {
		t.Errorf("RecordN allocates %.1f objects per call, want 0", avg)
	}
	var nilHist *Hist
	if avg := testing.AllocsPerRun(1000, func() { nilHist.Record(1.25e-4); nilHist.RecordN(1.25e-4, 64) }); avg > 0 {
		t.Errorf("nil-Hist Record/RecordN allocates %.1f objects per call, want 0", avg)
	}
}

// shardedRecordGuard: the per-worker sharded form rides the same hot
// paths as the flat one.
func shardedRecordGuard(t *testing.T) {
	s := NewSharded(8)
	if avg := testing.AllocsPerRun(1000, func() { s.Record(3, 1.25e-4) }); avg > 0 {
		t.Errorf("Record allocates %.1f objects per call, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { s.RecordN(3, 1.25e-4, 64) }); avg > 0 {
		t.Errorf("RecordN allocates %.1f objects per call, want 0", avg)
	}
	var nilSharded *Sharded
	if avg := testing.AllocsPerRun(1000, func() { nilSharded.Record(3, 1.25e-4); nilSharded.RecordN(3, 1.25e-4, 64) }); avg > 0 {
		t.Errorf("nil-Sharded Record/RecordN allocates %.1f objects per call, want 0", avg)
	}
}
