package ledger

import (
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
)

// hotGuards is this package's alloc-guard table (see
// internal/hotpath): one entry per //lint:loopsched-hotpath function.
// The fetch-add + table-lookup pair IS the decentralized scheduling
// round trip, so both share one steady-state cycle guard.
var hotGuards = map[string]func(t *testing.T){
	"(*Local).FetchAdd": claimGuard,
	"(*Table).Chunk":    claimGuard,
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

// claimGuard is the zero-alloc criterion of the claim cycle: fetch-add
// the counter and look the step up in both table shapes — allocates
// nothing.
func claimGuard(t *testing.T) {
	var l Local
	analytic, err := Build(sched.CSSScheme{K: 16}, sched.Config{Iterations: 1 << 20, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := Build(sched.TSSScheme{}, sched.Config{Iterations: 1 << 20, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		step, err := l.FetchAdd(8)
		if err != nil {
			panic(err)
		}
		// Wrap each lookup into its table's range: the guard measures
		// the claim cycle, not a full drain (TSS has ~32 steps here).
		if _, ok := analytic.Chunk(step % uint64(analytic.Steps())); !ok {
			panic("analytic table dry")
		}
		if _, ok := replayed.Chunk(step % uint64(replayed.Steps())); !ok {
			panic("replayed table dry")
		}
	})
	if allocs != 0 {
		t.Fatalf("claim cycle allocates %.1f times per op, want 0", allocs)
	}
}
