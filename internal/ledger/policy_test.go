package ledger_test

// The checks in this file hold dispense.Dispenser — the one place a
// chunk is calculated — to the properties the step table and the
// distributed schemes' share rule promise: every claim order tiles the
// loop exactly once, positions only move forward, batches stay
// share-bounded, a distributed chunk is its requester's share of the
// stage, and equal ACPs reduce a distributed scheme to its simple
// counterpart's step table (ledger.Build).

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"loopsched/internal/dispense"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
)

// shareSchemes returns every registered distributed scheme whose chunk
// is the requester's share A_j/A of a stage — all but AWF, which learns
// from completions instead — plus the benchmark's DCSS(4).
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
	if len(out) < 7 {
		t.Fatalf("only %d distributed schemes registered", len(out)-1)
	}
	return out
}

// acpPatterns are the plans the tests run under; a pattern shorter than
// p repeats.
var acpPatterns = [][]int{{1}, {10}, {10, 30}, {7, 12, 30}, {1, 100}}

func acpVector(pattern []int, p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// forEachPlan runs f for every distributed scheme x p x N x ACP pattern.
func forEachPlan(t *testing.T, f func(t *testing.T, s sched.Scheme, acps []int, n int)) {
	for _, s := range shareSchemes(t) {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for _, pattern := range acpPatterns {
					acps := acpVector(pattern, p)
					t.Run(fmt.Sprintf("%s/p%d/n%d/%v", s.Name(), p, n, pattern), func(t *testing.T) {
						f(t, s, acps, n)
					})
				}
			}
		}
	}
}

// base is where every staged loop starts, so no check can lean on 0.
const base = 17

// claimAll stages [base, base+n) on a dispenser whose workers reported
// acps and claims it dry from a seeded random worker order, each claim
// carrying live[w] as its ACP and asking for max chunks (1..16 at
// random when max is 0). It returns the batches in claim order and
// fails if the stage does not drain or a drained one grants again.
func claimAll(t *testing.T, s sched.Scheme, acps, live []int, n, max int, seed int64) [][]sched.Assignment {
	t.Helper()
	p := len(acps)
	d := dispense.New(dispense.Config{Scheme: s, Workers: p})
	for w, a := range acps {
		d.Report(w, a)
	}
	if err := d.Stage(base, n); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var batches [][]sched.Assignment
	for claims := 0; !d.Drained(); claims++ {
		if claims > 1<<20 {
			t.Fatal("stage does not drain")
		}
		w, m := rng.Intn(p), max
		if m == 0 {
			m = 1 + rng.Intn(16)
		}
		batch, _ := d.Claim(w, live[w], m, nil)
		if len(batch) > m {
			t.Fatalf("%d chunks for max %d", len(batch), m)
		}
		if len(batch) > 0 {
			batches = append(batches, batch)
		}
	}
	for w := range acps {
		if got, _ := d.Claim(w, live[w], 4, nil); len(got) != 0 || !d.Drained() {
			t.Fatalf("drained stage granted %+v to worker %d", got, w)
		}
	}
	return batches
}

// tiles fails unless the batches' chunks, sorted, cover [lo, hi)
// without gap, overlap or empty chunk.
func tiles(t *testing.T, batches [][]sched.Assignment, lo, hi int) {
	t.Helper()
	var chunks []sched.Assignment
	for _, b := range batches {
		chunks = append(chunks, b...)
	}
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

// withinShareBound fails unless a batch of more than one chunk stays
// within sched.BatchLimit of what was left at its start (left), with
// its last chunk predicted by its predecessor: Claim cannot ask a
// policy a chunk's size without granting it, which is exact for
// non-increasing sequences.
func withinShareBound(t *testing.T, batch []sched.Assignment, left, n, p int) {
	t.Helper()
	k := len(batch)
	if k < 2 {
		return
	}
	iters := batch[k-2].Size - batch[k-1].Size
	for _, c := range batch {
		iters += c.Size
	}
	if limit := sched.BatchLimit(left, n, p); iters > limit {
		t.Fatalf("batch %v at %d left holds %d iterations, limit %d", batch, left, iters, limit)
	}
}

// TestUnitPositionsAreMonotone is property (a): claimed one after the
// other, the chunks start where the previous one ended — the first at
// the stage's base, the last ending at base+N — so the position a claim
// reads never moves back, and past the end it stays put: a drained
// stage grants nothing.
func TestUnitPositionsAreMonotone(t *testing.T) {
	forEachPlan(t, func(t *testing.T, s sched.Scheme, acps []int, n int) {
		next := base
		for _, b := range claimAll(t, s, acps, acps, n, 0, 1) {
			for _, c := range b {
				if c.Start != next || c.Size <= 0 {
					t.Fatalf("chunk %+v after position %d", c, next)
				}
				next = c.End()
			}
		}
		if next != base+n {
			t.Fatalf("claims end at %d, want %d", next, base+n)
		}
	})
}

// TestUnitClaimsTileTheLoop is property (b): any claim order tiles
// [base, base+N) exactly once. A claimant whose live ACP left the plan
// (the master draws by the ACP on the request) joins in on the third
// seed; where it is a majority the stage re-plans part-way.
func TestUnitClaimsTileTheLoop(t *testing.T) {
	forEachPlan(t, func(t *testing.T, s sched.Scheme, acps []int, n int) {
		for seed := int64(1); seed <= 3; seed++ {
			live := append([]int(nil), acps...)
			if seed == 3 {
				live[0] = 13
			}
			tiles(t, claimAll(t, s, acps, live, n, 0, seed), base, base+n)
		}
	})
}

// TestSpanBatchShareBound is property (e): whatever max a claimant
// passes, a batch holds between one and max chunks and stays within
// sched.BatchLimit of what is left beyond its first chunk.
func TestSpanBatchShareBound(t *testing.T) {
	forEachPlan(t, func(t *testing.T, s sched.Scheme, acps []int, n int) {
		for _, max := range []int{1, 4, 16} {
			next := base
			batches := claimAll(t, s, acps, acps, n, max, int64(max))
			for _, b := range batches {
				withinShareBound(t, b, base+n-next, n, len(acps))
				next = b[len(b)-1].End()
			}
			tiles(t, batches, base, base+n)
		}
	})
}

// TestUnitClaimIsTheACPShareOfItsStage is property (d): with every
// worker asking once per stage, each chunk of a stage-based distributed
// scheme is within one iteration of SC_k·A_j/A for one stage total SC_k
// shared by the whole stage — for DFSS SC_k is half of what the stage
// found left — and the benchmark's DCSS(4) on 30:10 workers grants
// exactly 6 and 2 in any claim order, the loop's clipped last chunk
// aside.
func TestUnitClaimIsTheACPShareOfItsStage(t *testing.T) {
	const n = 65536
	for _, s := range []sched.Scheme{sched.NewDFSS(), sched.NewDFISS(0), sched.NewDTFSS()} {
		for _, acps := range [][]int{{10, 30}, {7, 12, 30}, {1, 100}, {10, 10, 10, 40}} {
			p := len(acps)
			total := 0
			for _, a := range acps {
				total += a
			}
			d := dispense.New(dispense.Config{Scheme: s, Workers: p})
			for w, a := range acps {
				d.Report(w, a)
			}
			if err := d.Stage(0, n); err != nil {
				t.Fatal(err)
			}
			checked := 0
			for k, stageStart := 0, 0; ; k++ {
				stage := make([]sched.Assignment, 0, p)
				for w := range acps {
					if a, ok, _ := d.Next(w, acps[w]); ok {
						stage = append(stage, a)
					}
				}
				if len(stage) < p || stage[p-1].End() == n {
					break // the clipped tail stage
				}
				// Every chunk j pins SC_k to within A/A_j of C_j·A/A_j.
				lo, hi := 0.0, float64(n)
				for w, c := range stage {
					share := float64(acps[w]) / float64(total)
					lo = max(lo, float64(c.Size-1)/share)
					hi = min(hi, float64(c.Size+1)/share)
				}
				if lo > hi {
					t.Fatalf("%s %v: stage %d grants %v, no SC_k gives every C_j = SC_k·A_j/A ± 1", s.Name(), acps, k, stage)
				}
				if sc := float64(n-stageStart) / 2; s.Name() == "DFSS" && (sc < lo || sc > hi) {
					t.Fatalf("%s %v: stage %d grants %v, want SC_k = %d/2 = %.1f", s.Name(), acps, k, stage, n-stageStart, sc)
				}
				stageStart = stage[p-1].End()
				checked++
			}
			if checked < 2 {
				t.Fatalf("%s %v: only %d stages checked", s.Name(), acps, checked)
			}
		}
	}

	want := []int{6, 2}
	d := dispense.New(dispense.Config{Scheme: sched.NewDCSS(4), Workers: 2})
	d.Report(0, 30)
	d.Report(1, 10)
	if err := d.Stage(0, n); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for claimed := 0; claimed+6 < n; {
		w := rng.Intn(2)
		a, _, _ := d.Next(w, []int{30, 10}[w])
		if a.Size != want[w] {
			t.Fatalf("DCSS(4) 30:10: worker %d at %d claims %+v, want %d iterations", w, claimed, a, want[w])
		}
		claimed = a.End()
	}
}

// TestEqualACPsReproduceTheSimpleTable is property (c), the paper's
// reduction property on the dispenser: with every A_j = 1 a
// distributed scheme hands out the sequence its simple counterpart
// grants a homogeneous system — for DFSS, DTFSS, DCSS(k) and DGSS the
// counterpart's step table, byte for byte, and for DTSS and DFISS their
// own homogeneous replay (DFISS only approximates FISS — its bump
// rounds up where FISS rounds down, sched.TestDFISSApproximatesFISS).
// The schemes that read A_j only as the share A_j/A do so for any equal
// ACP, 10 as well; DTSS and DTFSS size their trapezoid by A itself.
func TestEqualACPsReproduceTheSimpleTable(t *testing.T) {
	simple := map[string]sched.Scheme{
		"DFSS":     sched.FSSScheme{},
		"DTFSS":    sched.TFSSScheme{},
		"DCSS(4)":  sched.CSSScheme{K: 4},
		"DCSS(16)": sched.CSSScheme{K: 16},
		"DGSS":     sched.GSSScheme{},
	}
	seen := 0
	for _, s := range shareSchemes(t) {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for _, acp := range []int{1, 10} {
					if (s.Name() == "DTSS" || s.Name() == "DTFSS") && acp != 1 {
						continue
					}
					cfg := sched.Config{Iterations: n, Workers: p}
					name := fmt.Sprintf("%s p=%d n=%d acp=%d", s.Name(), p, n, acp)
					var want []sched.Assignment
					if counterpart, ok := simple[s.Name()]; ok {
						tab, err := ledger.Build(counterpart, cfg)
						if err != nil {
							t.Fatal(err)
						}
						for k := 0; k < tab.Steps(); k++ {
							c, _ := tab.Chunk(uint64(k))
							want = append(want, c)
						}
						seen++
					} else {
						pol, err := s.NewPolicy(cfg)
						if err != nil {
							t.Fatal(err)
						}
						for a, ok := pol.Next(sched.Request{}); ok; a, ok = pol.Next(sched.Request{}) {
							want = append(want, a)
						}
					}
					d := dispense.New(dispense.Config{Scheme: s, Workers: p})
					for w := 0; w < p; w++ {
						d.Report(w, acp)
					}
					if err := d.Stage(0, n); err != nil {
						t.Fatal(err)
					}
					for k := 0; ; k++ {
						got, ok, _ := d.Next(k%p, acp)
						if k == len(want) {
							if ok {
								t.Fatalf("%s: chunk %d = %+v past the %d the homogeneous system grants", name, k, got, len(want))
							}
							break
						}
						if !ok || got != want[k] {
							t.Fatalf("%s: chunk %d = %+v (%v), the homogeneous system grants %+v", name, k, got, ok, want[k])
						}
					}
				}
			}
		}
	}
	if seen == 0 {
		t.Fatal("no scheme was compared with its simple counterpart")
	}
}

// TestBatchShareBound is the share rule every claim is sized with, on
// dispense.Claim: for every step-deterministic scheme in the registry
// (CSS, FSS, TSS and the rest, plus explicit fixed-chunk schemes), a
// claim for up to 8 chunks gets between one and 8 whose iteration total
// stays within sched.BatchLimit of what is left unless it is a single
// chunk, a claim for one gets exactly one, and a drained stage grants
// nothing.
func TestBatchShareBound(t *testing.T) {
	schemes := []sched.Scheme{sched.CSSScheme{K: 4}, sched.CSSScheme{K: 1000}}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.StepDeterministic(s) {
			schemes = append(schemes, s)
		}
	}
	for _, s := range schemes {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{1, p - 1, 2000, 65536} {
				name := fmt.Sprintf("%s p=%d N=%d", s.Name(), p, n)
				d := dispense.New(dispense.Config{Scheme: s, Workers: p})
				if err := d.Stage(0, n); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				next := 0
				for claim := 0; !d.Drained(); claim++ {
					max := 8
					if claim%2 == 1 {
						max = 1
					}
					batch, _ := d.Claim(claim%p, 1, max, nil)
					if len(batch) == 0 {
						continue // the claim that found the stage dry
					}
					if len(batch) > max || (max == 1 && len(batch) != 1) {
						t.Fatalf("%s at %d: %d chunks for max %d", name, next, len(batch), max)
					}
					withinShareBound(t, batch, n-next, n, p)
					next = batch[len(batch)-1].End()
				}
				if next != n {
					t.Fatalf("%s: claims end at %d", name, next)
				}
				if got, _ := d.Claim(0, 1, 8, nil); len(got) != 0 {
					t.Fatalf("%s: drained stage granted %+v", name, got)
				}
			}
		}
	}
}

// TestBatchKeepsDecreasingChunksApart pins the two cases the rule was
// written for (docs/LEDGER.md "Share-bounded batches"): a loop of a few
// large decreasing chunks is claimed one chunk at a time, so no worker
// can hold the whole loop, while a fine fixed-chunk loop still fills
// the cap, so the round trips per chunk do not grow.
func TestBatchKeepsDecreasingChunksApart(t *testing.T) {
	tfss := dispense.New(dispense.Config{Scheme: sched.TFSSScheme{}, Workers: 2})
	if err := tfss.Stage(0, 2000); err != nil {
		t.Fatal(err)
	}
	for claim := 0; !tfss.Drained(); claim++ {
		if got, _ := tfss.Claim(claim%2, 1, 8, nil); len(got) > 1 {
			t.Errorf("TFSS N=2000 p=2: claim %d takes %d chunks %v, want 1", claim, len(got), got)
		}
	}
	const n = 1 << 16
	css := dispense.New(dispense.Config{Scheme: sched.CSSScheme{K: 4}, Workers: 2})
	if err := css.Stage(0, n); err != nil {
		t.Fatal(err)
	}
	for claim := 0; !css.Drained(); claim++ {
		got, _ := css.Claim(claim%2, 1, 8, nil)
		if len(got) != 8 && len(got) > 0 && got[len(got)-1].End() != n {
			t.Fatalf("CSS(4) N=65536 p=2: claim %d takes %d chunks, want the cap 8", claim, len(got))
		}
	}
}
