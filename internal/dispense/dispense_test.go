package dispense

import (
	"fmt"
	"testing"

	"loopsched/internal/acp"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
)

// request is one scripted slave request: who asks and with what A_i.
type request struct{ worker, acp int }

// script scripts a run's requests. at gives the i-th request; gather
// lists the reports that arrive before the first plan (the paper's
// step 1(a)); powers are the static V_i the caller hands over, or nil.
type script struct {
	name   string
	powers func(p int) []float64
	gather func(p int) []request
	at     func(i, p int) request
}

func roundRobin(acpOf func(round, w int) int) func(i, p int) request {
	return func(i, p int) request { return request{i % p, acpOf(i/p, i%p)} }
}

func gatherAll(acpOf func(w int) int) func(p int) []request {
	return func(p int) []request {
		var rs []request
		for w := 0; w < p; w++ {
			rs = append(rs, request{w, acpOf(w)})
		}
		return rs
	}
}

func oneToThree(w int) int { return 10 + 20*(w%2) }

var scripts = []script{
	{
		name:   "equal",
		gather: gatherAll(func(int) int { return 10 }),
		at:     roundRobin(func(int, int) int { return 10 }),
	},
	{
		name: "1:3 fixed",
		powers: func(p int) []float64 {
			v := make([]float64, p)
			for w := range v {
				v[w] = float64(1 + 2*(w%2))
			}
			return v
		},
		gather: gatherAll(oneToThree),
		at:     roundRobin(func(_, w int) int { return oneToThree(w) }),
	},
	{
		// Every worker's load flips after its second request, so a
		// majority differs from the plan part-way through the run.
		name:   "majority flips mid-run",
		gather: gatherAll(oneToThree),
		at: roundRobin(func(round, w int) int {
			if round >= 2 {
				return 40 - oneToThree(w)
			}
			return oneToThree(w)
		}),
	},
	{
		// The last worker stays silent through the gather and the
		// first rounds; the plan counts it as power 1 until it shows up.
		name: "one worker silent until last",
		gather: func(p int) []request {
			return gatherAll(oneToThree)(p)[:p-1]
		},
		at: func(i, p int) request {
			if q := p - 1; i < 3*p && q > 0 {
				return request{i % q, oneToThree(i % q)}
			}
			return request{i % p, oneToThree(i % p)}
		},
	},
}

// reference is the master algorithm written out the long way, as every
// runtime used to carry it: live and plan-time ACP arrays, a plan over
// the remaining iterations wrapped in sched.Offset, the majority
// re-plan before each draw. The Dispenser must reproduce it request
// for request.
type reference struct {
	scheme           sched.Scheme
	p, base, end     int
	powers           []float64
	noReplan         bool
	liveACP, planACP []int
	policy           sched.Policy
	replans          int
}

func (r *reference) plan(t *testing.T) {
	cfg := sched.Config{Iterations: r.end - r.base, Workers: r.p}
	_, wf := r.scheme.(sched.WFScheme)
	_, ws := r.scheme.(sched.WeightedStaticScheme)
	switch {
	case (wf || ws) && r.powers != nil:
		cfg.Powers = r.powers
	case wf || ws || sched.Distributed(r.scheme):
		cfg.Powers = make([]float64, r.p)
		for w, a := range r.liveACP {
			cfg.Powers[w] = float64(max(a, 1))
		}
	}
	pol, err := r.scheme.NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r.policy = sched.Offset(pol, r.base)
	copy(r.planACP, r.liveACP)
}

func (r *reference) next(t *testing.T, q request) (sched.Assignment, bool, bool) {
	r.liveACP[q.worker] = q.acp
	replanned := false
	if sched.Distributed(r.scheme) && !r.noReplan && acp.MajorityChanged(r.planACP, r.liveACP) {
		r.plan(t)
		r.replans++
		replanned = true
	}
	a, ok := r.policy.Next(sched.Request{Worker: q.worker, ACP: float64(q.acp)})
	if ok {
		r.base = a.End()
	}
	return a, ok, replanned
}

func forEachCase(t *testing.T, f func(t *testing.T, s sched.Scheme, p, n int, sc script)) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for _, sc := range scripts {
					t.Run(fmt.Sprintf("%s/p%d/n%d/%s", name, p, n, sc.name), func(t *testing.T) {
						f(t, s, p, n, sc)
					})
				}
			}
		}
	}
}

func (sc script) config(s sched.Scheme, p int) Config {
	cfg := Config{Scheme: s, Workers: p}
	if sc.powers != nil {
		cfg.Powers = sc.powers(p)
	}
	return cfg
}

// TestNextReproducesThePolicy is property (a): one chunk per request,
// the Dispenser hands out exactly what the reference master does —
// same ranges, same re-plan points, same re-plan count — and both
// cover [0, n) exactly once.
func TestNextReproducesThePolicy(t *testing.T) {
	forEachCase(t, func(t *testing.T, s sched.Scheme, p, n int, sc script) {
		cfg := sc.config(s, p)
		d := New(cfg)
		ref := &reference{scheme: s, p: p, end: n, powers: cfg.Powers,
			liveACP: make([]int, p), planACP: make([]int, p)}
		for _, q := range sc.gather(p) {
			d.Report(q.worker, q.acp)
			ref.liveACP[q.worker] = q.acp
		}
		if got, want := d.Gathered(), len(sc.gather(p)) == p; got != want {
			t.Fatalf("Gathered() = %v after %d of %d reports", got, len(sc.gather(p)), p)
		}
		if d.Planned() || !d.Drained() {
			t.Fatal("a Dispenser without a stage must be unplanned and drained")
		}
		if err := d.Stage(0, n); err != nil {
			t.Fatal(err)
		}
		ref.plan(t)

		covered := 0
		for i, stopped := 0, 0; stopped < 2*p; i++ {
			q := sc.at(i, p)
			want, wantOK, wantRe := ref.next(t, q)
			got, ok, re := d.Next(q.worker, q.acp)
			if ok != wantOK || got != want || re != wantRe {
				t.Fatalf("request %d %+v: got %+v ok=%v replanned=%v, reference %+v ok=%v replanned=%v",
					i, q, got, ok, re, want, wantOK, wantRe)
			}
			if !ok {
				stopped++ // keep asking: a drained plan must stay drained
				continue
			}
			if got.Start != covered || got.Size < 1 {
				t.Fatalf("request %d: chunk %+v does not continue at %d", i, got, covered)
			}
			covered = got.End()
		}
		if covered != n || !d.Drained() {
			t.Errorf("covered %d of %d iterations, Drained() = %v", covered, n, d.Drained())
		}
		if d.Replans() != ref.replans {
			t.Errorf("%d re-plans, reference took %d", d.Replans(), ref.replans)
		}
		if !sched.Distributed(s) && d.Replans() != 0 {
			t.Errorf("non-distributed scheme re-planned %d times", d.Replans())
		}
		if sched.Distributed(s) && sc.name == "majority flips mid-run" && n == 65536 && d.Replans() == 0 {
			t.Error("the flip script never triggered a re-plan: the test lost its subject")
		}
	})
}

// TestBatchesAreShareBoundedAndSourceBlind is properties (b) and (c):
// whatever max a claimant passes, every batch is at most max chunks
// whose iterations stay within sched.BatchLimit of what was left when
// it started unless it is a single chunk — with the batch's last chunk
// predicted by its predecessor, since a policy cannot be asked a
// chunk's size without granting it — and for every step-deterministic
// scheme the chunks are the scheme's step table (ledger.Build), in
// order, whatever max was.
func TestBatchesAreShareBoundedAndSourceBlind(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{0, 1, p - 1, 2000, 65536} {
				for _, max := range []int{1, 2, 8, 32} {
					t.Run(fmt.Sprintf("%s/p%d/n%d/max%d", name, p, n, max), func(t *testing.T) {
						d := New(Config{Scheme: s, Workers: p})
						if err := d.Stage(0, n); err != nil {
							t.Fatal(err)
						}
						seq := drainInBatches(t, d, p, n, max)
						if !sched.StepDeterministic(s) {
							return
						}
						tab, err := ledger.Build(s, sched.Config{Iterations: n, Workers: p})
						if err != nil {
							t.Fatal(err)
						}
						if len(seq) != tab.Steps() {
							t.Fatalf("policy handed out %d chunks, the step table has %d", len(seq), tab.Steps())
						}
						for k, a := range seq {
							if want, _ := tab.Chunk(uint64(k)); a != want {
								t.Fatalf("chunk %d: policy %+v, step table %+v", k, a, want)
							}
						}
					})
				}
			}
		}
	}
}

// drainInBatches claims until the stage is dry, checking every batch
// against the share bound, and returns the flattened chunk sequence.
func drainInBatches(t *testing.T, d *Dispenser, p, n, max int) []sched.Assignment {
	var seq []sched.Assignment
	buf := make([]sched.Assignment, 0, max)
	covered := 0
	for w := 0; ; w = (w + 1) % p {
		batch, _ := d.Claim(w, 1+w, max, buf[:0])
		if len(batch) == 0 {
			break
		}
		if len(batch) > max {
			t.Fatalf("batch of %d chunks, max %d", len(batch), max)
		}
		iters := 0
		for _, a := range batch {
			if a.Start != covered {
				t.Fatalf("chunk %+v does not continue at %d", a, covered)
			}
			covered = a.End()
			iters += a.Size
		}
		if k := len(batch); k > 1 {
			iters += batch[k-2].Size - batch[k-1].Size
			if limit := sched.BatchLimit(n-batch[0].Start, n, p); iters > limit {
				t.Fatalf("batch %v: %d iterations, limit %d", batch, iters, limit)
			}
		}
		seq = append(seq, batch...)
	}
	if covered != n || !d.Drained() {
		t.Fatalf("covered %d of %d iterations, Drained() = %v", covered, n, d.Drained())
	}
	return seq
}

// TestStageIsAnOffsetFreshPolicy is property (d), what the hierarchy
// leans on: staging super-chunk [start, start+size) hands out exactly
// sched.Offset of a fresh policy over size iterations planned from the
// latest reports, and a Dispenser can be re-staged any number of times,
// drained or not. The table-true leg holds a step-deterministic scheme
// to its step table (ledger.Build over size iterations, shifted by
// start) instead; every other scheme has none and is held to the
// offset policy on both legs.
func TestStageIsAnOffsetFreshPolicy(t *testing.T) {
	stages := []struct{ start, size int }{{0, 1}, {137, 963}, {4096, 555}, {25, 10000}, {999983, 77}, {7, 0}}
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, table := range []bool{false, true} {
			for _, p := range []int{1, 3, 8} {
				t.Run(fmt.Sprintf("%s/table-%v/p%d", name, table, p), func(t *testing.T) {
					d := New(Config{Scheme: s, Workers: p, NoReplan: true})
					ref := &reference{scheme: s, p: p, noReplan: true,
						liveACP: make([]int, p), planACP: make([]int, p)}
					for si, st := range stages {
						// Fresh reports before each stage; the abandoned
						// half of the previous one must leave no trace.
						for w := 0; w < p; w++ {
							a := 10 + 5*((w+si)%3)
							d.Report(w, a)
							ref.liveACP[w] = a
						}
						if err := d.Stage(st.start, st.size); err != nil {
							t.Fatal(err)
						}
						ref.base, ref.end = st.start, st.start+st.size
						ref.plan(t)
						var tab *ledger.Table
						if table && sched.StepDeterministic(s) {
							if tab, err = ledger.Build(s, sched.Config{Iterations: st.size, Workers: p}); err != nil {
								t.Fatal(err)
							}
						}
						take := -1 // drain odd stages, abandon even ones half-way
						if si%2 == 0 {
							take = 3
						}
						for i := 0; i != take; i++ {
							q := request{i % p, ref.liveACP[i%p]}
							want, wantOK, _ := ref.next(t, q)
							if tab != nil {
								if want, wantOK = tab.Chunk(uint64(i)); wantOK {
									want.Start += st.start
								}
							}
							got, ok, _ := d.Next(q.worker, q.acp)
							if ok != wantOK || got != want {
								t.Fatalf("stage %+v draw %d: got %+v ok=%v, want %+v ok=%v", st, i, got, ok, want, wantOK)
							}
							if !ok {
								break
							}
						}
					}
				})
			}
		}
	}
}

// TestFeedbackReachesLearningPolicies: AWF's chunk sizes must move
// with the measurements fed through the Dispenser, and survive the
// offset wrapper of a re-staged plan.
func TestFeedbackReachesLearningPolicies(t *testing.T) {
	for _, start := range []int{0, 500} {
		sizes := func(feed bool) (out []int) {
			d := New(Config{Scheme: sched.AWFScheme{}, Workers: 2})
			if err := d.Stage(start, 4000); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 8; i++ {
				w := i % 2
				if feed && i >= 2 {
					d.Feedback(w, 100, float64(1+9*w)) // worker 1 is 10x slower
				}
				a, _, _ := d.Next(w, 1)
				out = append(out, a.Size)
			}
			return out
		}
		plain, fed := sizes(false), sizes(true)
		if fmt.Sprint(plain) == fmt.Sprint(fed) {
			t.Errorf("stage at %d: feedback left AWF's chunks unchanged: %v", start, fed)
		}
	}
}
