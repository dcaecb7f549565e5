// Package ledger precomputes a step-deterministic scheme's chunk
// sequence: for schemes whose chunk sequence is a pure function of the
// scheduling step (sched.StepDeterministic), the whole sequence can be
// fixed at plan time, so "give me my next chunk" could collapse from a
// policy draw under the master's lock into a fetch-and-add on a shared
// step counter plus a table lookup — the chunk-calculation model of
// Eleliemy & Ciorba (arXiv:2101.07050).
//
// No runtime draws from it: every grant is internal/dispense's locked
// Claim on the scheme's policy. What remains is what the benchmark's
// probes and the tests' step-count oracles read (docs/LEDGER.md):
//
//   - Table precomputes step → [start, end) for one run. Fixed-chunk
//     schemes (SS, CSS) get an analytic table — start is step·K, no
//     array at all — while every other step-deterministic scheme is
//     replayed once through its Policy into a prefix-starts slice.
//   - Local is the step counter: one cache-line-padded atomic.Uint64.
//
// Claiming is claim-then-check: a claimant fetch-adds first and only
// then consults the table. Steps claimed at or past Table.Steps() are
// simply wasted — the counter is monotone, so no range is ever handed
// out twice and termination needs no retraction protocol.
package ledger

import (
	"errors"
	"fmt"
	"sync/atomic"

	"loopsched/internal/sched"
)

// MaxSteps caps the size of a replayed prefix table. A scheme whose
// sequence is longer (SS over a huge loop, say) would cost more memory
// than the lock it saves; Build reports such configurations ineligible
// and the caller stays on the policy.
// Fixed-chunk schemes are analytic and exempt from the cap.
const MaxSteps = 1 << 22

// ErrIneligible marks a scheme/config pair the ledger cannot serve:
// the scheme is not step-deterministic (it reads worker identity, ACP
// or feedback), or its replayed table would exceed MaxSteps. Callers
// treat it as "use the master path", not as a failure.
var ErrIneligible = errors.New("ledger: scheme not step-deterministic")

// Local is the in-process ledger: one fetch-and-add counter padded to
// its own cache line so the hottest word in the scheduler never
// false-shares with neighbouring allocations.
type Local struct {
	_    [64]byte
	next atomic.Uint64
	_    [56]byte
}

// FetchAdd claims n consecutive steps and returns the first. It is the
// whole acquire protocol — one uncontended LOCK XADD in steady state.
// The error is always nil.
//
//lint:loopsched-hotpath
func (l *Local) FetchAdd(n int) (uint64, error) {
	u := uint64(n)
	return l.next.Add(u) - u, nil
}

// Table is one run's precomputed chunk sequence: step k maps to the
// k-th assignment the scheme's policy would have granted. A Table is
// immutable after Build and safe for concurrent lookups from any
// number of workers.
type Table struct {
	total int
	fixed int   // >0: analytic fixed-chunk scheme, no starts array
	steps int   // number of chunks in the sequence
	start []int // prefix starts, len steps+1 with start[steps] == total
}

// Build precomputes the chunk table for s under cfg, or reports
// ErrIneligible when the scheme must stay on the master path. The
// eligibility rule is exactly the one docs/LEDGER.md documents:
// the scheme declares StepDeterministic, is not Distributed, and its
// policy takes no run-time feedback; everything else — including
// table-size overflow — keeps the policy.
func Build(s sched.Scheme, cfg sched.Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NoClip {
		return nil, fmt.Errorf("%w: NoClip sequences are unbounded", ErrIneligible)
	}
	if sched.Distributed(s) || !sched.StepDeterministic(s) {
		return nil, fmt.Errorf("%w: %s", ErrIneligible, s.Name())
	}
	if k, ok := sched.FixedChunk(s, cfg); ok && k > 0 {
		return &Table{total: cfg.Iterations, fixed: k, steps: (cfg.Iterations + k - 1) / k}, nil
	}
	return replayed(s, cfg)
}

// replayed runs the scheme's policy once with an empty request — no
// worker, no ACP — into a prefix-starts table.
func replayed(s sched.Scheme, cfg sched.Config) (*Table, error) {
	pol, err := s.NewPolicy(cfg)
	if err != nil {
		return nil, err
	}
	if _, fb := pol.(sched.FeedbackPolicy); fb {
		// A feedback-taking policy contradicts the declaration; be
		// conservative rather than replay a sequence the live run
		// would diverge from.
		return nil, fmt.Errorf("%w: %s policy takes feedback", ErrIneligible, s.Name())
	}
	t := &Table{total: cfg.Iterations}
	t.start = append(t.start, 0)
	for {
		a, ok := pol.Next(sched.Request{})
		if !ok {
			break
		}
		if a.Start != t.start[len(t.start)-1] {
			return nil, fmt.Errorf("ledger: %s replay is not contiguous at step %d (start %d, want %d)",
				s.Name(), len(t.start)-1, a.Start, t.start[len(t.start)-1])
		}
		if len(t.start) > MaxSteps {
			return nil, fmt.Errorf("%w: %s sequence exceeds %d steps", ErrIneligible, s.Name(), MaxSteps)
		}
		t.start = append(t.start, a.End())
	}
	t.steps = len(t.start) - 1
	if t.steps > 0 && t.start[t.steps] != t.total {
		return nil, fmt.Errorf("ledger: %s replay covers %d of %d iterations",
			s.Name(), t.start[t.steps], t.total)
	}
	return t, nil
}

// Steps returns the number of chunks in the sequence; fetch-add
// results at or past Steps are wasted claims.
func (t *Table) Steps() int { return t.steps }

// Iterations returns the total iteration count the table covers.
func (t *Table) Iterations() int { return t.total }

// Chunk maps a claimed step to its assignment. Steps at or beyond the
// end of the sequence return false — a worker that over-claims simply
// discards the claim and stops.
//
//lint:loopsched-hotpath
func (t *Table) Chunk(step uint64) (sched.Assignment, bool) {
	if step >= uint64(t.steps) {
		return sched.Assignment{}, false
	}
	if t.fixed > 0 {
		start := int(step) * t.fixed
		size := t.fixed
		if start+size > t.total {
			size = t.total - start
		}
		return sched.Assignment{Start: start, Size: size}, true
	}
	s := int(step)
	return sched.Assignment{Start: t.start[s], Size: t.start[s+1] - t.start[s]}, true
}
