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
	"(*Local).FetchAdd":  claimGuard,
	"(*Table).Chunk":     claimGuard,
	"(*Table).Batch":     claimGuard,
	"(*Table).Pos":       unitClaimGuard,
	"(*Table).Span":      unitClaimGuard,
	"(*Table).SpanBatch": unitClaimGuard,
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

// claimGuard is the zero-alloc acceptance criterion for the whole PR:
// one steady-state claim — size the batch, fetch-add the counter, look
// the step up in both table shapes — allocates nothing.
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
		step, err := l.FetchAdd(analytic.Batch(l.Next()%uint64(analytic.Steps()), 8))
		if err != nil {
			panic(err)
		}
		if replayed.Batch(step%uint64(replayed.Steps()), 8) < 1 {
			panic("empty batch")
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

// unitClaimGuard is the same criterion for the unit view: size a claim
// of a-unit spans, fetch-add the units, look every span up — on a unit
// table and on a step table read through the unit view.
func unitClaimGuard(t *testing.T) {
	var l Local
	units, err := BuildUnits(sched.NewDCSS(4), sched.Config{Iterations: 1 << 20, Workers: 2}, []int{30, 10})
	if err != nil {
		t.Fatal(err)
	}
	steps, err := Build(sched.TSSScheme{}, sched.Config{Iterations: 1 << 20, Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	a := units.Share(0)
	allocs := testing.AllocsPerRun(1000, func() {
		n := units.SpanBatch(l.Next()%units.End(), a, 8)
		u, err := l.FetchAdd(n * a)
		if err != nil {
			panic(err)
		}
		u %= units.End()
		for i := 0; i < n; i++ {
			if _, ok := units.Span(u+uint64(i*a), a); !ok {
				break // wrapped onto the tail: the rest is past the end
			}
		}
		if steps.SpanBatch(u%steps.End(), 1, 8) < 1 {
			panic("empty batch")
		}
		if _, ok := steps.Span(u%steps.End(), 1); !ok {
			panic("step table dry")
		}
	})
	if allocs != 0 {
		t.Fatalf("unit claim cycle allocates %.1f times per op, want 0", allocs)
	}
}
