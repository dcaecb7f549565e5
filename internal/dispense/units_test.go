package dispense

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"loopsched/internal/sched"
)

// shareSchemes returns every registered distributed scheme whose chunk
// is the requester's share A_j/A of a stage — all but AWF, which learns
// from completions instead — and the benchmark's DCSS(4).
func shareSchemes(t *testing.T) []sched.Scheme {
	t.Helper()
	out := []sched.Scheme{sched.NewDCSS(4)}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if !sched.Distributed(s) {
			continue
		}
		pol, err := s.NewPolicy(sched.Config{Iterations: 1, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if _, learns := pol.(sched.FeedbackPolicy); !learns {
			out = append(out, s)
		}
	}
	return out
}

// gathered returns a dispenser whose workers reported acps.
func gathered(t *testing.T, s sched.Scheme, acps []int) *Dispenser {
	t.Helper()
	d := New(Config{Scheme: s, Workers: len(acps)})
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

// TestUnitStageTilesUnderAnyInterleaving drives Claim on a stage of a
// distributed scheme from one goroutine in a seeded random worker
// order, batches of up to 16: every scheme x p x N x ACP plan hands out
// [base, base+N) exactly once, in non-decreasing starts, never an
// empty chunk, each batch within the share bound beyond its first
// chunk (sched.BatchLimit), and the dispenser reads drained exactly
// when nothing is left.
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
					d := gathered(t, s, acps)
					if err := d.Stage(base, n); err != nil {
						t.Fatalf("%s: %v", name, err)
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
							if c.Start != base+n-left+iters {
								t.Fatalf("%s: chunk %+v does not continue at %d", name, c, base+n-left+iters)
							}
							iters += c.Size
						}
						// The bound holds with the last chunk predicted by its
						// predecessor (Claim's rule): FISS-like stages grow.
						if k := len(batch); k > 1 {
							iters += batch[k-2].Size - batch[k-1].Size
							if limit := sched.BatchLimit(left, n, p); iters > limit {
								t.Fatalf("%s: batch %v holds %d iterations, limit %d", name, batch, iters, limit)
							}
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
