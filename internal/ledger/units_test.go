package ledger

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"loopsched/internal/sched"
)

// shareSchemes returns every registered scheme carrying the
// share-deterministic marker, plus the benchmark's DCSS(4).
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
	if len(out) < 7 {
		t.Fatalf("only %d share-deterministic schemes registered", len(out)-1)
	}
	return out
}

// acpPatterns are the plans the unit tests run under; a pattern shorter
// than p repeats.
var acpPatterns = [][]int{{1}, {10}, {10, 30}, {7, 12, 30}, {1, 100}}

func acpVector(pattern []int, p int) []int {
	out := make([]int, p)
	for i := range out {
		out[i] = pattern[i%len(pattern)]
	}
	return out
}

// forEachUnitTable builds the unit table of every share-deterministic
// scheme x p x N x ACP pattern and hands it to f.
func forEachUnitTable(t *testing.T, f func(t *testing.T, s sched.Scheme, tab *Table, acps []int)) {
	for _, s := range shareSchemes(t) {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for _, pattern := range acpPatterns {
					acps := acpVector(pattern, p)
					name := fmt.Sprintf("%s/p%d/n%d/%v", s.Name(), p, n, pattern)
					tab, err := BuildUnits(s, sched.Config{Iterations: n, Workers: p}, acps)
					if err != nil {
						t.Fatalf("%s: BuildUnits: %v", name, err)
					}
					t.Run(name, func(t *testing.T) { f(t, s, tab, acps) })
				}
			}
		}
	}
}

// TestUnitPositionsAreMonotone is property (a): P is non-decreasing
// with P(0) = 0 and P(End()) = N, and stays N however far past the end
// — also where a closed counter parks.
func TestUnitPositionsAreMonotone(t *testing.T) {
	forEachUnitTable(t, func(t *testing.T, _ sched.Scheme, tab *Table, _ []int) {
		if !tab.Units() {
			t.Fatal("BuildUnits returned a step table")
		}
		n := tab.Iterations()
		if got := tab.Pos(0); got != 0 {
			t.Fatalf("P(0) = %d", got)
		}
		for _, u := range []uint64{tab.End(), tab.End() + 1, Closed, Closed + 12345} {
			if got := tab.Pos(u); got != n {
				t.Fatalf("P(%d) = %d past the end, want %d", u, got, n)
			}
			if _, ok := tab.Span(u, 1); ok {
				t.Fatalf("Span(%d) past End() %d returned a chunk", u, tab.End())
			}
		}
		// Every position on small tables, a stride through large ones.
		stride := tab.End()/50000 + 1
		prev := 0
		for u := uint64(0); u <= tab.End(); u += stride {
			pos := tab.Pos(u)
			if pos < prev || pos > n {
				t.Fatalf("P(%d) = %d after %d (N = %d)", u, pos, prev, n)
			}
			prev = pos
		}
	})
}

// claimAll drives claimants over one shared counter in a seeded random
// order, each taking batches of 1..16 spans of its own share, until all
// of them have read past the end; it returns the non-empty spans.
func claimAll(tab *Table, shares []int, seed int64) []sched.Assignment {
	rng := rand.New(rand.NewSource(seed))
	var (
		ctr  Local
		out  []sched.Assignment
		done = make([]bool, len(shares))
		left = len(shares)
	)
	for left > 0 {
		w := rng.Intn(len(shares))
		if done[w] {
			continue
		}
		a, n := shares[w], 1+rng.Intn(16)
		u, _ := ctr.FetchAdd(n * a)
		for i := 0; i < n; i++ {
			s, ok := tab.Span(u+uint64(i*a), a)
			if !ok {
				done[w] = true
				left--
				break
			}
			if s.Size > 0 {
				out = append(out, s)
			}
		}
	}
	return out
}

// tiles fails unless the spans, sorted, cover [0, n) without gap,
// overlap or empty chunk.
func tiles(t *testing.T, spans []sched.Assignment, n int) {
	t.Helper()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	next := 0
	for _, s := range spans {
		if s.Start != next || s.Size <= 0 {
			t.Fatalf("spans do not tile [0,%d): got %+v, want start %d", n, s, next)
		}
		next = s.End()
	}
	if next != n {
		t.Fatalf("spans cover [0,%d), want [0,%d)", next, n)
	}
}

// TestUnitClaimsTileTheLoop is property (b): any interleaving of
// claimants, each advancing by its own A_j, tiles [0, N) exactly once.
// A claimant whose live ACP left the plan (the master path draws by the
// ACP on the request) is one more share, so an off-plan one joins in.
func TestUnitClaimsTileTheLoop(t *testing.T) {
	forEachUnitTable(t, func(t *testing.T, _ sched.Scheme, tab *Table, acps []int) {
		for seed := int64(1); seed <= 3; seed++ {
			shares := append([]int(nil), acps...)
			if seed == 3 {
				shares = append(shares, 13)
			}
			tiles(t, claimAll(tab, shares, seed), tab.Iterations())
		}
	})
}

// TestEqualACPsReproduceTheSimpleTable is property (c), the paper's
// reduction property on the ledger: with equal ACPs every claim lands
// on a whole chunk and the sequence is the one the scheme's own policy
// grants a homogeneous system — which for DFSS, DTFSS, DCSS(k) and DGSS
// is the simple counterpart's step table, byte for byte. (DFISS only
// approximates FISS — its bump rounds up where FISS rounds down,
// sched.TestDFISSApproximatesFISS — so it is held to its own replay.)
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
					cfg := sched.Config{Iterations: n, Workers: p}
					name := fmt.Sprintf("%s p=%d n=%d acp=%d", s.Name(), p, n, acp)
					units, err := BuildUnits(s, cfg, acpVector([]int{acp}, p))
					if err != nil {
						t.Fatal(err)
					}
					pol, err := s.NewPolicy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want := replay(t, pol, func(int) sched.Request { return sched.Request{} })
					if counterpart, ok := simple[s.Name()]; ok {
						steps, err := Build(counterpart, cfg)
						if err != nil {
							t.Fatal(err)
						}
						table := tableSeq(t, steps)
						if len(table) != len(want) {
							t.Fatalf("%s: %d chunks, %s's table has %d", name, len(want), counterpart.Name(), len(table))
						}
						for k := range table {
							if table[k] != want[k] {
								t.Fatalf("%s: chunk %d = %+v, %s grants %+v", name, k, want[k], counterpart.Name(), table[k])
							}
						}
						seen++
					}
					if got := units.End(); got != uint64(len(want)*acp) {
						t.Fatalf("%s: End() = %d units, want %d chunks x %d", name, got, len(want), acp)
					}
					for k, w := range want {
						got, ok := units.Span(uint64(k*acp), acp)
						if !ok || got != w {
							t.Fatalf("%s: chunk %d = %+v (%v), the homogeneous replay grants %+v", name, k, got, ok, w)
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

// TestUnitClaimIsTheACPShareOfItsStage is property (d): a claim of A_j
// units that lies inside one average-share chunk of a stage-based scheme
// is within one iteration of SC_k·A_j/A, and the benchmark's DCSS(4) on
// 30:10 workers grants exactly 6 and 2 wherever the claims fall.
func TestUnitClaimIsTheACPShareOfItsStage(t *testing.T) {
	const n = 65536
	for _, s := range []sched.Scheme{sched.NewDFSS(), sched.NewDFISS(0), sched.NewDTFSS()} {
		for _, acps := range [][]int{{10, 30}, {7, 12, 30}, {1, 100}, {10, 10, 10, 40}} {
			p := len(acps)
			tab, err := BuildUnits(s, sched.Config{Iterations: n, Workers: p}, acps)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			for _, a := range acps {
				total += a
			}
			checked := 0
			for k := 0; (k+1)*p <= tab.Steps(); k++ {
				first, _ := tab.Chunk(uint64(k * p))
				equal := true
				for j := 1; j < p; j++ {
					if c, _ := tab.Chunk(uint64(k*p + j)); c.Size != first.Size {
						equal = false // the clipped tail stage
					}
				}
				if !equal {
					continue
				}
				sc := first.Size * p
				for j := 0; j < p; j++ {
					// Worker w's claim at the start of the stage's j-th
					// average-share chunk, when it fits inside it.
					for w, a := range acps {
						if a*p > total {
							continue
						}
						u := uint64(k*total) + uint64((j*total+p-1)/p)
						if (u+uint64(a))*uint64(p) > uint64((k*p+j+1)*total) {
							continue
						}
						got, ok := tab.Span(u, a)
						if !ok {
							t.Fatalf("%s %v: stage %d claim past the end", s.Name(), acps, k)
						}
						want := float64(sc) * float64(a) / float64(total)
						if d := float64(got.Size) - want; d < -1 || d > 1 {
							t.Fatalf("%s %v: stage %d (SC=%d) worker %d claims %d, want SC·A_j/A = %.2f ± 1",
								s.Name(), acps, k, sc, w, got.Size, want)
						}
						checked++
					}
				}
			}
			if checked < p {
				t.Fatalf("%s %v: only %d claims checked", s.Name(), acps, checked)
			}
		}
	}

	tab, err := BuildUnits(sched.NewDCSS(4), sched.Config{Iterations: n, Workers: 2}, []int{30, 10})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for u := uint64(0); u+30 < tab.End()-40; {
		w := rng.Intn(2)
		a, want := tab.Share(w), []int{6, 2}[w]
		if got, ok := tab.Span(u, a); !ok || got.Size != want {
			t.Fatalf("DCSS(4) 30:10: worker %d at unit %d claims %+v, want %d iterations", w, u, got, want)
		}
		u += uint64(a)
	}
}

// TestSpanBatchShareBound is property (e): a batch of a-unit spans
// never exceeds sched.BatchLimit of what is left beyond its first
// chunk — nor, for a claimant below the average share, its own A_j·p/A
// of that — and is at least 1 and at most max.
func TestSpanBatchShareBound(t *testing.T) {
	forEachUnitTable(t, func(t *testing.T, _ sched.Scheme, tab *Table, acps []int) {
		n, p := tab.Iterations(), len(acps)
		total := 0
		for _, a := range acps {
			total += a
		}
		stride := tab.End()/5000 + 1
		for _, a := range acps[:min(len(acps), 3)] {
			for _, max := range []int{1, 4, 16} {
				for u := uint64(0); u < tab.End()+uint64(a); u += stride {
					got := tab.SpanBatch(u, a, max)
					if got < 1 || got > max {
						t.Fatalf("SpanBatch(%d, %d, %d) = %d", u, a, max, got)
					}
					if got == 1 {
						continue
					}
					first := tab.Pos(u)
					limit := sched.BatchLimit(n-first, n, p)
					if a*p < total {
						limit = limit * a * p / total
					}
					if iters := tab.Pos(u+uint64(got*a)) - first; iters > limit {
						t.Fatalf("SpanBatch(%d, %d, %d) = %d spans of %d iterations, limit %d", u, a, max, got, iters, limit)
					}
					if u+uint64(got-1)*uint64(a) >= tab.End() {
						t.Fatalf("SpanBatch(%d, %d, %d) = %d reaches past End() %d", u, a, max, got, tab.End())
					}
				}
			}
		}
	})
}

// TestUnitViewOfAStepTable: read through the unit view a step table is
// itself — Share 1, End = Steps, Span = Chunk, SpanBatch = Batch — so
// one claim loop serves both.
func TestUnitViewOfAStepTable(t *testing.T) {
	for _, s := range []sched.Scheme{sched.CSSScheme{K: 4}, sched.TSSScheme{}, sched.FSSScheme{}, sched.GSSScheme{}} {
		for _, n := range []int{0, 1, 2000, 65536} {
			tab, err := Build(s, sched.Config{Iterations: n, Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if tab.Units() || tab.Share(2) != 1 || tab.Share(-1) != 1 || tab.End() != uint64(tab.Steps()) {
				t.Fatalf("%s: step table reads Units=%v Share=%d End=%d Steps=%d", s.Name(), tab.Units(), tab.Share(2), tab.End(), tab.Steps())
			}
			for k := 0; k <= tab.Steps()+2; k++ {
				wantA, wantOK := tab.Chunk(uint64(k))
				if a, ok := tab.Span(uint64(k), 1); ok != wantOK || a != wantA {
					t.Fatalf("%s n=%d: Span(%d) = %+v %v, Chunk = %+v %v", s.Name(), n, k, a, ok, wantA, wantOK)
				}
				for _, max := range []int{1, 4, 16} {
					if got, want := tab.SpanBatch(uint64(k), 1, max), tab.Batch(uint64(k), max); got != want {
						t.Fatalf("%s n=%d: SpanBatch(%d, 1, %d) = %d, Batch = %d", s.Name(), n, k, max, got, want)
					}
				}
			}
		}
	}
}

// TestBuildUnitsIneligible: only the share-deterministic class gets a
// unit table; the plan must name every worker.
func TestBuildUnitsIneligible(t *testing.T) {
	cfg := sched.Config{Iterations: 100, Workers: 2}
	for _, s := range []sched.Scheme{sched.TSSScheme{}, sched.WFScheme{}, sched.AWFScheme{}} {
		if _, err := BuildUnits(s, cfg, []int{1, 1}); err == nil {
			t.Errorf("BuildUnits accepted %s", s.Name())
		}
	}
	if _, err := BuildUnits(sched.NewDFSS(), cfg, []int{1}); err == nil {
		t.Error("BuildUnits accepted one ACP for two workers")
	}
	tab, err := BuildUnits(sched.NewDFSS(), cfg, []int{0, -3})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Share(0) != 1 || tab.Share(1) != 1 || tab.Share(2) != 0 {
		t.Errorf("shares %d %d %d, want 1 1 0 (ACPs below 1 plan as 1, unknown workers have none)",
			tab.Share(0), tab.Share(1), tab.Share(2))
	}
}

// TestLocalClose: Close returns the first unit no claim had taken and
// parks the counter where every table reads drained.
func TestLocalClose(t *testing.T) {
	var l Local
	l.FetchAdd(40)
	if got := l.Close(); got != 40 {
		t.Fatalf("Close() = %d, want 40", got)
	}
	if u, _ := l.FetchAdd(30); u < Closed {
		t.Fatalf("claim after Close landed at %d", u)
	}
}
