package service

import (
	"context"
	"fmt"
	"math"
	"time"
)

// pick is the credit arbiter: it chooses the job whose master the
// worker's next request goes to, at the worker's latest clock reading,
// and charges the worker's allowance there. It returns that job's
// attempt and the allowance the worker may ask of it, in iterations — nil
// when no job wants credit, together with the generation to idle on — or
// false once the scheduler is closed.
// Arbitration is strict priority first — no job receives credit while a
// job of a higher priority class still has chunks to hand out — and
// weighted deficit-round-robin within a class: every round each such
// job's deficit grows by weight·quantum iterations, and the job with the
// largest positive deficit spends next. The pick charges the whole of
// that deficit as the worker's allowance, so the class's other workers
// pick another job or start a round rather than all spending the same
// credit; the worker asks for no more than the allowance, rounded up to
// whole chunks (fleetWorker.ask), and pays back what its grant left
// (settle): a grant overdraws by less than a chunk, and the debt carries
// across rounds, so long-run granted-iteration totals converge to the
// weight ratio. A job alone in its class competes with no one: its
// allowance is 0, no cap, and nothing is charged, so what it takes while
// no other job wants credit is no debt once one does. Preemption is
// implicit and exact: admitting a higher-priority job merely redirects
// future requests — chunks already granted stay where they are and run
// to completion, so no iteration is ever lost or re-executed.
func (s *Scheduler) pick(now time.Time) (*attempt, float64, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, 0, false
	}
	s.expireLocked(now)
	for i := 0; i < len(s.active); {
		end := i + 1
		for end < len(s.active) && s.active[end].spec.Priority == s.active[i].spec.Priority {
			end++
		}
		if j, alone := s.pickClassLocked(s.active[i:end]); j != nil {
			allow := 0.0
			if !alone {
				allow, j.deficit = j.deficit, 0
			}
			return j.att.Load(), allow, s.gen, true
		}
		i = end
	}
	return nil, 0, s.gen, true
}

// settle pays back to j's deficit what of a contested pick's allowance
// its grant did not use: unused iterations, negative for an overdraw.
func (s *Scheduler) settle(j *Job, unused float64) {
	s.mu.Lock()
	j.deficit += unused
	s.mu.Unlock()
}

// pickClassLocked runs deficit-round-robin over one priority class:
// among its jobs whose master has chunks left, the one with the largest
// positive deficit, replenishing the class by as many rounds as it takes
// at once; nil when none has any. alone reports that the job is the only
// one in the class that wants credit. Callers hold s.mu.
func (s *Scheduler) pickClassLocked(class []*Job) (best *Job, alone bool) {
	q := float64(s.quantum)
	for {
		wanting, rounds := 0, math.Inf(1)
		for _, j := range class {
			if !j.wantsCredit() {
				continue
			}
			wanting++
			if j.deficit > 0 && (best == nil || j.deficit > best.deficit) {
				best = j
			}
			// The rounds after which j's deficit is positive.
			rounds = min(rounds, math.Floor(-j.deficit/(j.weight()*q))+1)
		}
		if best != nil || wanting == 0 {
			return best, wanting == 1
		}
		// New rounds, as many as the first job back in credit needs; debt
		// carries.
		for _, j := range class {
			if j.wantsCredit() {
				j.deficit += rounds * j.weight() * q
			}
		}
	}
}

// expireLocked fails running jobs whose deadline has passed; the
// request they were denied is the preemption point, so only
// not-yet-granted chunks are withheld. Callers hold s.mu.
func (s *Scheduler) expireLocked(now time.Time) {
	var expired []*Job
	for _, j := range s.active {
		if dl := j.spec.Deadline; !dl.IsZero() && now.After(dl) {
			expired = append(expired, j)
		}
	}
	for _, j := range expired {
		s.finishLocked(j, StateFailed,
			fmt.Errorf("service: job %d missed its deadline: %w", j.id, context.DeadlineExceeded))
	}
}
