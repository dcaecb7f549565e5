package dispense

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"loopsched/internal/sched"
)

// shareSchemes returns every registered share-deterministic scheme and
// the benchmark's DCSS(4).
func shareSchemes(t *testing.T) []sched.Scheme {
	t.Helper()
	out := []sched.Scheme{sched.NewDCSS(4)}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.ShareDeterministic(s) {
			out = append(out, s)
		}
	}
	return out
}

// gathered returns a unit-table dispenser whose workers reported acps.
func gathered(t *testing.T, s sched.Scheme, acps []int, noReplan bool) *Dispenser {
	t.Helper()
	d := New(Config{Scheme: s, Workers: len(acps), Table: true, Units: true, NoReplan: noReplan})
	for w, a := range acps {
		d.Report(w, a)
	}
	if !d.Gathered() {
		t.Fatal("gather incomplete")
	}
	return d
}

// tiles fails unless the chunks, sorted, cover [lo, hi) without gap,
// overlap or empty chunk.
func tiles(t *testing.T, chunks []sched.Assignment, lo, hi int) {
	t.Helper()
	sort.Slice(chunks, func(i, j int) bool { return chunks[i].Start < chunks[j].Start })
	next := lo
	for _, c := range chunks {
		if c.Start != next || c.Size <= 0 {
			t.Fatalf("chunks do not tile [%d,%d): got %+v, want start %d", lo, hi, c, next)
		}
		next = c.End()
	}
	if next != hi {
		t.Fatalf("chunks cover [%d,%d), want [%d,%d)", lo, next, lo, hi)
	}
}

// TestUnitStageTilesUnderAnyInterleaving drives Claim on a unit-table
// stage from one goroutine in a seeded random worker order, batches of
// up to 16: every share-deterministic scheme x p x N x ACP plan hands
// out [base, base+N) exactly once, never an empty chunk, each batch
// within the share bound beyond its first chunk, and the dispenser
// reads drained exactly when nothing is left.
func TestUnitStageTilesUnderAnyInterleaving(t *testing.T) {
	patterns := [][]int{{1}, {10}, {10, 30}, {7, 12, 30}, {1, 100}}
	for _, s := range shareSchemes(t) {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for pi, pattern := range patterns {
					acps := make([]int, p)
					for w := range acps {
						acps[w] = pattern[w%len(pattern)]
					}
					name := fmt.Sprintf("%s p=%d n=%d %v", s.Name(), p, n, pattern)
					const base = 17
					d := gathered(t, s, acps, false)
					if err := d.Stage(base, n); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					tab := d.Table()
					if tab == nil || !tab.Units() {
						t.Fatalf("%s: no unit table armed", name)
					}
					rng := rand.New(rand.NewSource(int64(pi + 1)))
					var all, batch []sched.Assignment
					for steps := 0; !d.Drained(); steps++ {
						if steps > 1<<20 {
							t.Fatalf("%s: stage does not drain", name)
						}
						w, max := rng.Intn(p), 1+rng.Intn(16)
						left := base + n
						if len(all) > 0 {
							left -= all[len(all)-1].End()
						} else {
							left -= base
						}
						batch, _ = d.Claim(w, acps[w], max, batch[:0])
						if len(batch) > max {
							t.Fatalf("%s: %d chunks for max %d", name, len(batch), max)
						}
						iters := 0
						for _, c := range batch {
							iters += c.Size
						}
						// The claim was sized where the counter stood, which
						// single-threaded is where the last chunk ended.
						if limit := sched.BatchLimit(left, n, p); len(batch) > 1 && iters > limit {
							t.Fatalf("%s: batch of %d chunks holds %d iterations, limit %d", name, len(batch), iters, limit)
						}
						all = append(all, batch...)
					}
					tiles(t, all, base, base+n)
					if got, _ := d.Claim(0, acps[0], 4, nil); len(got) != 0 {
						t.Fatalf("%s: drained stage granted %+v", name, got)
					}
					if d.Replans() != 0 {
						t.Fatalf("%s: %d re-plans without an ACP change", name, d.Replans())
					}
				}
			}
		}
	}
}

// TestUnitsOnlyWhereAsked: Units arms nothing for schemes outside the
// share-deterministic class, a step table wins where one can be had, and
// without Units the distributed family keeps the recursive policy.
func TestUnitsOnlyWhereAsked(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, units := range []bool{false, true} {
			d := New(Config{Scheme: s, Workers: 2, Table: true, Units: units})
			d.Report(0, 30)
			d.Report(1, 10)
			if err := d.Stage(0, 1000); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			tab := d.Table()
			switch {
			case sched.StepDeterministic(s):
				if tab == nil || tab.Units() {
					t.Errorf("%s units=%v: want a step table, got %v", name, units, tab)
				}
			case sched.ShareDeterministic(s) && units:
				if tab == nil || !tab.Units() || tab.Share(0) != 30 || tab.Share(1) != 10 {
					t.Errorf("%s: want a unit table planned from 30:10, got %v", name, tab)
				}
			default:
				if tab != nil {
					t.Errorf("%s units=%v: armed a table", name, units)
				}
			}
		}
	}
}

// TestReviseRecordsAndReplansOnMajority pins Revise's rule on one
// goroutine: a minority change is recorded and keeps the table, the
// majority closes it and plans a policy over exactly what was left.
func TestReviseRecordsAndReplansOnMajority(t *testing.T) {
	const n = 6000
	acps := []int{10, 30, 10, 30}
	d := gathered(t, sched.NewDFSS(), acps, false)
	if err := d.Stage(0, n); err != nil {
		t.Fatal(err)
	}
	led := d.Ledger()
	var before []sched.Assignment
	for w := range acps {
		before, _ = d.Claim(w, acps[w], 2, before)
	}
	for w := 0; w < 2; w++ { // two of four: not a majority
		if replanned, err := d.Revise(w, 5); replanned || err != nil {
			t.Fatalf("Revise(%d) = %v, %v on a minority change", w, replanned, err)
		}
	}
	if d.Ledger() != led || d.Replans() != 0 {
		t.Fatal("a minority change swapped the stage")
	}
	if replanned, err := d.Revise(2, 5); !replanned || err != nil {
		t.Fatalf("Revise = %v, %v on the majority change", replanned, err)
	}
	if d.Ledger() != nil || d.Table() != nil || d.Replans() != 1 {
		t.Fatalf("after the re-plan: ledger %v, replans %d", d.Ledger(), d.Replans())
	}
	if got := led.Claim(3, 30, 4, nil); len(got) != 0 {
		t.Fatalf("the closed ledger granted %+v", got)
	}
	if u := led.FetchAdd(30); led.Table().Pos(u) != n {
		t.Fatalf("a claim on the closed ledger landed at unit %d", u)
	}
	// A further Revise is a plain report now; the policy path re-plans
	// in Claim as it always did.
	if replanned, _ := d.Revise(3, 5); replanned {
		t.Fatal("Revise re-planned a policy stage")
	}
	after := before
	for i := 0; !d.Drained(); i++ {
		after, _ = d.Claim(i%4, 5, 3, after)
	}
	tiles(t, after, 0, n)

	// The ablation switch keeps the table whatever the reports say.
	d = gathered(t, sched.NewDFSS(), acps, true)
	if err := d.Stage(0, n); err != nil {
		t.Fatal(err)
	}
	for w := range acps {
		if replanned, _ := d.Revise(w, 1); replanned {
			t.Fatal("Revise re-planned with NoReplan set")
		}
	}
	if d.Table() == nil {
		t.Fatal("NoReplan stage lost its table")
	}
}

// TestCloseThenRestageUnderRace is the re-plan with claimants in
// flight: four goroutines draw the way exec.Master does — lock-free on
// the ledger they loaded, under the site's mutex once there is none —
// while a fifth flips a majority of ACPs. The claimants hold at a mark
// until the flipper is one report short of the majority, so the closing
// Revise meets them running. The chunks taken from the closed ledger
// plus the chunks of the re-planned policy are [0, N) exactly once, and
// the re-plan counts once.
func TestCloseThenRestageUnderRace(t *testing.T) {
	const n, claimants = 65536, 4
	for _, s := range []sched.Scheme{sched.NewDCSS(4), sched.DTSSScheme{}, sched.NewDFSS()} {
		split := 0
		for round := 0; round < 5; round++ {
			acps := []int{30, 10, 30, 10}
			d := gathered(t, s, acps, false)
			if err := d.Stage(0, n); err != nil {
				t.Fatal(err)
			}
			var (
				mu      sync.Mutex // the site's lock: Revise and policy draws
				wg      sync.WaitGroup
				chunks  [claimants][]sched.Assignment
				closed  [claimants]int // chunks taken from the first ledger
				first   = d.Ledger()
				mark    = first.Table().End() / 4
				reached = make(chan struct{}, claimants)
				flip    = make(chan struct{})
			)
			for w := 0; w < claimants; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					held := false
					for {
						l := d.Ledger()
						before := len(chunks[w])
						if l != nil {
							chunks[w] = l.Claim(w, acps[w], 1+w, chunks[w])
							if l == first {
								closed[w] += len(chunks[w]) - before
							}
							if !held && first.FetchAdd(0) >= mark {
								held = true
								reached <- struct{}{}
								<-flip
							}
							continue
						}
						mu.Lock()
						chunks[w], _ = d.Claim(w, 40-acps[w], 1+w, chunks[w])
						drained := d.Drained()
						mu.Unlock()
						if drained && len(chunks[w]) == before {
							return
						}
					}
				}(w)
			}
			<-reached
			for w := 0; w < 3; w++ {
				if w == 2 {
					close(flip) // the claimants run again as the majority lands
				}
				mu.Lock()
				if _, err := d.Revise(w, 40-acps[w]); err != nil {
					t.Error(err)
				}
				mu.Unlock()
			}
			wg.Wait()
			var all []sched.Assignment
			fromClosed := 0
			for w := range chunks {
				all = append(all, chunks[w]...)
				fromClosed += closed[w]
			}
			tiles(t, all, 0, n)
			if d.Replans() != 1 {
				t.Fatalf("%s: %d re-plans, want 1", s.Name(), d.Replans())
			}
			if fromClosed == 0 {
				t.Fatalf("%s: no chunk came from the ledger", s.Name())
			}
			if fromClosed < len(all) {
				split++
			}
		}
		// A round whose claimants drained the ledger before the closing
		// Revise ran is legal and proves little; they cannot all be.
		if split == 0 {
			t.Fatalf("%s: the re-plan never split a run", s.Name())
		}
	}
}
