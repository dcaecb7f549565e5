// Package ledger implements decentralized chunk calculation: for
// self-scheduling schemes whose chunk sequence is a pure function of
// the scheduling step (sched.StepDeterministic), the whole sequence
// can be fixed at plan time, so "give me my next chunk" collapses from
// a policy draw under the master's lock into a fetch-and-add on a
// shared step counter plus a table lookup — the chunk-calculation model
// of Eleliemy & Ciorba (arXiv:2101.07050).
//
// The package provides the two halves of that model:
//
//   - Table precomputes step → [start, end) for one run. Fixed-chunk
//     schemes (SS, CSS) get an analytic table — start is step·K, no
//     array at all — while every other step-deterministic scheme is
//     replayed once through its Policy into a prefix-starts slice.
//   - Local is the step counter: one cache-line-padded atomic.Uint64.
//     exec.Master's lock-free grant path and the service's JobState
//     draw from it through internal/dispense.
//
// The distributed schemes of the paper (sched.ShareDeterministic: a
// chunk is the requester's share A_j/A of a stage) get the same
// treatment through a unit table (BuildUnits): the scheme is replayed
// once with equal powers, the counter advances in units of computing
// power instead of steps, and a claimant that takes A_j units gets the
// iterations its share of the replayed sequence covers (Span) — one
// interpolation over one array for all of them, in integer arithmetic,
// so every interleaving of claimants tiles the loop exactly once.
// internal/dispense arms one for a site that sets Config.Units; no Run
// backend does, so their grants follow the policy's C_j = SC_k·A_j/A.
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

// Closed is where Close parks the counter: far past the end of any
// table, far below overflow however many claims still race it.
const Closed = uint64(1) << 62

// Close ends claiming: it pushes the counter past the end of every
// table and returns the first step (or unit) no claim had taken. A
// claim racing it either landed wholly before — and stays valid — or
// reads a position at or past Closed, which every table treats as
// drained.
func (l *Local) Close() uint64 { return l.next.Add(Closed) - Closed }

// Next returns the number of steps claimed so far.
func (l *Local) Next() uint64 { return l.next.Load() }

// Store seeds the counter. Not safe concurrently with FetchAdd.
func (l *Local) Store(v uint64) { l.next.Store(v) }

// Table is one run's precomputed chunk sequence: step k maps to the
// k-th assignment the scheme's policy would have granted. A Table is
// immutable after Build and safe for concurrent lookups from any
// number of workers.
type Table struct {
	total   int
	workers int   // p of the run the table was built for (Batch's share rule)
	fixed   int   // >0: analytic fixed-chunk scheme, no starts array
	steps   int   // number of chunks in the sequence
	start   []int // prefix starts, len steps+1 with start[steps] == total

	// The unit view (BuildUnits). A step table is the special case of a
	// counter that moves one step per unit: acps nil, sum 0, end = steps.
	acps []int  // plan-time ACP A_j per worker
	sum  uint64 // A = ΣA_j: one stage of p chunks is A units
	end  uint64 // first counter position past the sequence
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
		steps := (cfg.Iterations + k - 1) / k
		return &Table{total: cfg.Iterations, workers: cfg.Workers, fixed: k, steps: steps, end: uint64(steps)}, nil
	}
	return replayed(s, cfg)
}

// BuildUnits precomputes the unit table of a share-deterministic scheme
// (sched.ShareDeterministic) for the plan whose ACPs are acps (one per
// worker; values below 1 count as 1, as in the policy's plan): the
// sequence the scheme grants p equal workers — for DFSS, DFISS, DTFSS
// and DCSS the simple counterpart's table, by the paper's reduction
// property — read through a counter that advances in ACP units. One
// stage of p average-share chunks is A = ΣA_j units, so a claimant that
// takes A_j units gets C_j = SC_k·A_j/A whatever the other claimants
// do (Span). Schemes outside the class, NoClip and over-long sequences
// are ErrIneligible.
func BuildUnits(s sched.Scheme, cfg sched.Config, acps []int) (*Table, error) {
	cfg.Powers = nil // the replay is the homogeneous system's
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.NoClip {
		return nil, fmt.Errorf("%w: NoClip sequences are unbounded", ErrIneligible)
	}
	if !sched.ShareDeterministic(s) {
		return nil, fmt.Errorf("%w: %s", ErrIneligible, s.Name())
	}
	if len(acps) != cfg.Workers {
		return nil, fmt.Errorf("ledger: %d ACPs for %d workers", len(acps), cfg.Workers)
	}
	t, err := replayed(s, cfg)
	if err != nil {
		return nil, err
	}
	t.acps = make([]int, len(acps))
	for i, a := range acps {
		if a < 1 {
			a = 1
		}
		t.acps[i] = a
		t.sum += uint64(a)
	}
	p := uint64(t.workers)
	t.end = (uint64(t.steps)*t.sum + p - 1) / p
	return t, nil
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
	t := &Table{total: cfg.Iterations, workers: cfg.Workers}
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
	t.end = uint64(t.steps)
	return t, nil
}

// Eligible reports whether Build would succeed for s under cfg.
func Eligible(s sched.Scheme, cfg sched.Config) bool {
	_, err := Build(s, cfg)
	return err == nil
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

// Batch answers "how many steps should one claim take from step?": the
// longest run of consecutive chunks starting there whose iteration
// total stays within sched.BatchLimit of what the table has left at
// that step — at least 1 (a single chunk may exceed the limit; so may a
// step at or past Steps(), which claims nothing and only has to move
// the counter), at most max. Claimants pass the counter position as
// they know it; a stale (lower) position only ever sizes the batch for
// earlier, larger chunks than the claim will actually receive.
//
//lint:loopsched-hotpath
func (t *Table) Batch(step uint64, max int) int {
	if max <= 1 || step >= uint64(t.steps) {
		return 1
	}
	s := int(step)
	if t.fixed > 0 {
		n := sched.BatchLimit(t.total-s*t.fixed, t.total, t.workers) / t.fixed
		if n < 1 {
			return 1
		}
		if n > max {
			return max
		}
		return n
	}
	first := t.start[s]
	limit := sched.BatchLimit(t.total-first, t.total, t.workers)
	n := 1
	for n < max && s+n < t.steps && t.start[s+n+1]-first <= limit {
		n++
	}
	return n
}

// The unit view. A counter position u is a number of units served so
// far: scheduling steps on a step table, units of computing power on a
// unit table, where A units are one stage of p average-share chunks.

// Units reports whether the table was built by BuildUnits.
func (t *Table) Units() bool { return t.sum != 0 }

// Share returns how many units one chunk of worker's takes: its
// plan-time ACP on a unit table (0 for a worker the plan does not
// know), one step on a step table.
func (t *Table) Share(worker int) int {
	if t.sum == 0 {
		return 1
	}
	if worker < 0 || worker >= len(t.acps) {
		return 0
	}
	return t.acps[worker]
}

// End returns the first counter position past the sequence: Steps() on
// a step table, ⌈Steps()·A/p⌉ units on a unit table. Claims at or past
// End are wasted, exactly like steps past Steps().
func (t *Table) End() uint64 { return t.end }

// startAt is the prefix start of chunk m, for m <= steps.
func (t *Table) startAt(m int) int {
	if t.fixed == 0 {
		return t.start[m]
	}
	if s := m * t.fixed; s < t.total {
		return s
	}
	return t.total
}

// Pos returns P(u), the first iteration not covered by the first u
// units: the prefix-start array read at u·p/A chunks, linearly between
// two entries, in integers — m = ⌊u·p/A⌋, r = u·p mod A,
// P = H[m] + ⌊(H[m+1]−H[m])·r/A⌋. P is non-decreasing, P(0) = 0 and
// P(u) = Iterations() from End() on, which is all that exactly-once
// needs; master and claimant compute it identically.
//
//lint:loopsched-hotpath
func (t *Table) Pos(u uint64) int {
	if u >= t.end {
		return t.total
	}
	if t.sum == 0 {
		return t.startAt(int(u))
	}
	up := u * uint64(t.workers)
	m, r := int(up/t.sum), up%t.sum
	lo := t.startAt(m)
	if r == 0 {
		return lo
	}
	return lo + int(uint64(t.startAt(m+1)-lo)*r/t.sum)
}

// Span maps a claim of a units at position u to its iterations
// [P(u), P(u+a)). It reports false at or past End() — the claim is
// wasted and the sequence fully claimed. A span inside the sequence may
// still be empty (a small share of a small chunk rounds to nothing):
// the claimant skips it, and nobody counts or publishes it. With a = 1
// on a step table Span is Chunk.
//
//lint:loopsched-hotpath
func (t *Table) Span(u uint64, a int) (sched.Assignment, bool) {
	if u >= t.end {
		return sched.Assignment{}, false
	}
	lo := t.Pos(u)
	return sched.Assignment{Start: lo, Size: t.Pos(u+uint64(a)) - lo}, true
}

// SpanBatch is Batch in chunks of a units: how many consecutive
// a-unit spans one claim at position u should take so that their
// iterations stay within sched.BatchLimit of what is left at u — at
// least 1, at most max, never reaching past End() after the first.
// BatchLimit is a PE's even share; a claimant whose a units are less
// than an average chunk's A/p is held to that much less, or a slow
// worker's batch would be sized for a machine it is not. With a = 1 on
// a step table it is Batch.
//
//lint:loopsched-hotpath
func (t *Table) SpanBatch(u uint64, a, max int) int {
	if t.sum == 0 && a == 1 {
		return t.Batch(u, max)
	}
	if max <= 1 || u >= t.end {
		return 1
	}
	first := t.Pos(u)
	limit := sched.BatchLimit(t.total-first, t.total, t.workers)
	if ap := uint64(a) * uint64(t.workers); t.sum != 0 && ap < t.sum {
		limit = int(uint64(limit) * ap / t.sum)
	}
	n, w := 1, uint64(a)
	for n < max && u+uint64(n)*w < t.end && t.Pos(u+uint64(n+1)*w)-first <= limit {
		n++
	}
	return n
}
