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
	if next, _ := l.FetchAdd(0); next != want {
		t.Fatalf("counter = %d, want %d", next, want)
	}
	for s := uint64(0); s < want; s++ {
		if !seen[s] {
			t.Fatalf("step %d never claimed", s)
		}
	}
}
