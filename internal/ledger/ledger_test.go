package ledger

import (
	"errors"
	"sync"
	"testing"

	"loopsched/internal/sched"
)

// replay drains a policy under the given request pattern.
func replay(t *testing.T, pol sched.Policy, reqs func(step int) sched.Request) []sched.Assignment {
	t.Helper()
	var out []sched.Assignment
	for step := 0; ; step++ {
		a, ok := pol.Next(reqs(step))
		if !ok {
			return out
		}
		out = append(out, a)
		if step > 1<<20 {
			t.Fatal("replay does not terminate")
		}
	}
}

// tableSeq drains a table in step order.
func tableSeq(t *testing.T, tab *Table) []sched.Assignment {
	t.Helper()
	out := make([]sched.Assignment, 0, tab.Steps())
	for s := 0; s < tab.Steps(); s++ {
		a, ok := tab.Chunk(uint64(s))
		if !ok {
			t.Fatalf("step %d < Steps() %d returned no chunk", s, tab.Steps())
		}
		out = append(out, a)
	}
	if _, ok := tab.Chunk(uint64(tab.Steps())); ok {
		t.Fatal("step past Steps() returned a chunk")
	}
	return out
}

// TestRegistryDeclaresStepDeterminism is the registry-wide capability
// audit: every scheme that declares StepDeterministic must produce a
// table byte-identical to its policy's sequence under *any* request
// interleaving, and every scheme that does not declare it must have a
// visible reason — it is distributed, it takes feedback, or a change
// of requester provably changes its sequence. A new scheme cannot
// register with a wrong declaration without failing here.
func TestRegistryDeclaresStepDeterminism(t *testing.T) {
	cfg := sched.Config{Iterations: 997, Workers: 4}
	het := sched.Config{Iterations: 997, Workers: 4, Powers: []float64{1, 2, 3, 10}}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			if sched.StepDeterministic(s) {
				tab, err := Build(s, cfg)
				if err != nil {
					t.Fatalf("declared step-deterministic but Build failed: %v", err)
				}
				want := tableSeq(t, tab)
				// Adversarial interleavings: rotating workers,
				// reversed workers, wild ACP swings. All must match
				// the table exactly.
				patterns := []func(step int) sched.Request{
					func(step int) sched.Request { return sched.Request{Worker: step % cfg.Workers} },
					func(step int) sched.Request {
						return sched.Request{Worker: cfg.Workers - 1 - step%cfg.Workers, ACP: float64(1 + step%7)}
					},
					func(step int) sched.Request { return sched.Request{Worker: 0, ACP: 1000} },
				}
				for pi, pat := range patterns {
					pol, err := s.NewPolicy(cfg)
					if err != nil {
						t.Fatal(err)
					}
					got := replay(t, pol, pat)
					if len(got) != len(want) {
						t.Fatalf("pattern %d: policy granted %d chunks, table has %d", pi, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("pattern %d: chunk %d: policy %+v, table %+v", pi, i, got[i], want[i])
						}
					}
				}
				return
			}
			// Not declared: demand a visible reason.
			if sched.Distributed(s) {
				return
			}
			if _, err := s.NewPolicy(het); err == nil {
				pol, _ := s.NewPolicy(het)
				if _, fb := pol.(sched.FeedbackPolicy); fb {
					return
				}
				// Last resort: a worker permutation must change the
				// sequence, proving the policy reads the request.
				a, _ := s.NewPolicy(het)
				b, _ := s.NewPolicy(het)
				fwd := replay(t, a, func(step int) sched.Request { return sched.Request{Worker: step % het.Workers} })
				rev := replay(t, b, func(step int) sched.Request {
					return sched.Request{Worker: het.Workers - 1 - step%het.Workers}
				})
				same := len(fwd) == len(rev)
				if same {
					for i := range fwd {
						if fwd[i] != rev[i] {
							same = false
							break
						}
					}
				}
				if same {
					t.Fatalf("%s is undeclared yet request-blind: permuting workers left the sequence unchanged — declare StepDeterministic or justify here", name)
				}
			}
		})
	}
}

// TestBuildIneligible pins the eligibility rule's refusals.
func TestBuildIneligible(t *testing.T) {
	cfg := sched.Config{Iterations: 100, Workers: 4}
	for _, s := range []sched.Scheme{
		sched.WeightedStaticScheme{}, // reads Request.Worker
		sched.WFScheme{},             // static weights per worker
		sched.AWFScheme{},            // feedback
		sched.DTSSScheme{},           // distributed
	} {
		if _, err := Build(s, cfg); !errors.Is(err, ErrIneligible) {
			t.Errorf("%s: Build err = %v, want ErrIneligible", s.Name(), err)
		}
		if Eligible(s, cfg) {
			t.Errorf("%s reported eligible", s.Name())
		}
	}
	if _, err := Build(sched.TSSScheme{}, sched.Config{Iterations: 100, Workers: 4, NoClip: true}); !errors.Is(err, ErrIneligible) {
		t.Errorf("NoClip: err = %v, want ErrIneligible", err)
	}
	// SS over a loop longer than MaxSteps steps stays eligible: the
	// fixed-chunk table is analytic, no array to blow up.
	big := sched.Config{Iterations: MaxSteps * 4, Workers: 4}
	tab, err := Build(sched.SelfScheduling, big)
	if err != nil {
		t.Fatalf("analytic SS table: %v", err)
	}
	if tab.Steps() != big.Iterations {
		t.Fatalf("SS steps = %d, want %d", tab.Steps(), big.Iterations)
	}
}

// TestFixedAnalyticMatchesReplay cross-checks the analytic fixed-chunk
// path against a forced replay of the same policy.
func TestFixedAnalyticMatchesReplay(t *testing.T) {
	cfg := sched.Config{Iterations: 103, Workers: 3}
	s := sched.CSSScheme{K: 8}
	tab, err := Build(s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tab.fixed == 0 {
		t.Fatal("CSS table is not analytic")
	}
	pol, err := s.NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := replay(t, pol, func(int) sched.Request { return sched.Request{} })
	got := tableSeq(t, tab)
	if len(got) != len(want) {
		t.Fatalf("table %d chunks, policy %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("chunk %d: table %+v, policy %+v", i, got[i], want[i])
		}
	}
}

// TestLocalFetchAddClaimsDisjointSteps hammers one Local from many
// goroutines and asserts the claims partition the step space.
func TestLocalFetchAddClaimsDisjointSteps(t *testing.T) {
	const (
		workers = 8
		claims  = 1000
		batch   = 3
	)
	var l Local
	var mu sync.Mutex
	seen := make(map[uint64]bool)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < claims; i++ {
				first, err := l.FetchAdd(batch)
				if err != nil {
					panic(err)
				}
				mu.Lock()
				for s := first; s < first+batch; s++ {
					if seen[s] {
						mu.Unlock()
						panic("step claimed twice")
					}
					seen[s] = true
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	want := uint64(workers * claims * batch)
	if l.Next() != want {
		t.Fatalf("counter = %d, want %d", l.Next(), want)
	}
	for s := uint64(0); s < want; s++ {
		if !seen[s] {
			t.Fatalf("step %d never claimed", s)
		}
	}
}

// TestLocalStoreSeedsCounter covers the hier rebuild path.
func TestLocalStoreSeedsCounter(t *testing.T) {
	var l Local
	if _, err := l.FetchAdd(5); err != nil {
		t.Fatal(err)
	}
	l.Store(0)
	first, _ := l.FetchAdd(2)
	if first != 0 {
		t.Fatalf("after Store(0), FetchAdd = %d, want 0", first)
	}
}

// TestBatchShareBound is the table-driven contract of Table.Batch, the
// share rule every batcher sizes its claims with: for every
// step-deterministic scheme in the registry (plus explicit fixed-chunk
// tables, which take the analytic branch), from every step, the batch
// is within [1, max], its chunks' iteration total stays within
// sched.BatchLimit of what is left at that step unless it is a single
// chunk, and a step at or past Steps() claims exactly one (wasted) step.
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
	const max = 8
	for _, s := range schemes {
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{1, p - 1, 2000, 65536} {
				tab, err := Build(s, sched.Config{Iterations: n, Workers: p})
				if err != nil {
					t.Fatalf("%s p=%d N=%d: %v", s.Name(), p, n, err)
				}
				for step := 0; step < tab.Steps(); step++ {
					first, _ := tab.Chunk(uint64(step))
					got := tab.Batch(uint64(step), max)
					if got < 1 || got > max {
						t.Fatalf("%s p=%d N=%d step %d: batch %d outside [1,%d]", s.Name(), p, n, step, got, max)
					}
					iters := 0
					for i := 0; i < got; i++ {
						a, _ := tab.Chunk(uint64(step + i)) // past the end: zero size
						iters += a.Size
					}
					limit := sched.BatchLimit(n-first.Start, n, p)
					if got > 1 && iters > limit {
						t.Fatalf("%s p=%d N=%d step %d: %d chunks carry %d iterations, limit %d",
							s.Name(), p, n, step, got, iters, limit)
					}
					if one := tab.Batch(uint64(step), 1); one != 1 {
						t.Fatalf("%s p=%d N=%d step %d: max 1 gave %d", s.Name(), p, n, step, one)
					}
				}
				for _, past := range []int{tab.Steps(), tab.Steps() + 1, tab.Steps() + 1<<20} {
					if got := tab.Batch(uint64(past), max); got != 1 {
						t.Fatalf("%s p=%d N=%d: step %d past the %d-step table claims %d, want 1",
							s.Name(), p, n, past, tab.Steps(), got)
					}
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
	tfss, err := Build(sched.TFSSScheme{}, sched.Config{Iterations: 2000, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < tfss.Steps(); step++ {
		if got := tfss.Batch(uint64(step), 8); got != 1 {
			t.Errorf("TFSS N=2000 p=2: a claim at step %d takes %d of %d chunks, want 1", step, got, tfss.Steps())
		}
	}
	css, err := Build(sched.CSSScheme{K: 4}, sched.Config{Iterations: 1 << 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, step := range []int{0, css.Steps() / 2, css.Steps() - 9} {
		if got := css.Batch(uint64(step), 8); got != 8 {
			t.Errorf("CSS(4) N=65536 p=2 step %d: claim takes %d chunks, want the cap 8", step, got)
		}
	}
}
