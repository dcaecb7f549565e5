package dispense

import (
	"fmt"
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable. One guard drives a book's whole request,
// because a chunk is retired only after it was granted.
var hotGuards = map[string]func(t *testing.T){
	"(*Book).Grant":  bookRequestGuard,
	"(*Book).retire": bookRequestGuard,
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

// bookRequestGuard pins a master's steady-state request on its book at
// zero allocations, at the depth a worker asks on a fine loop: deposit
// the 64 chunks of the last grant, retire them from the worker's
// holding, and grant 64 more into the reused reply buffer.
func bookRequestGuard(t *testing.T) {
	const depth = 64
	b := NewBook(Config{Scheme: sched.CSSScheme{K: 4}, Workers: 2}, 1<<18, &stages{sizes: []int{1 << 18}})
	var dst []sched.Run
	cycle := func() {
		for _, r := range dst {
			b.Deposit(r.Start, r.End())
		}
		b.Retire(0, false)
		var err error
		if dst, _, _, err = b.Grant(0, 1, depth); err != nil || len(dst) != 1 || dst[0].Count != depth {
			panic(fmt.Sprint("book guard: grant of ", dst, ", want one run of ", depth))
		}
	}
	cycle() // stages the loop and sizes the reply buffer
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("a %d-grant request on the book allocates %.1f objects, want 0", depth, avg)
	}
}
