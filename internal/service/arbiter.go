package service

import (
	"context"
	"fmt"
	"time"
)

// pick is the credit arbiter: it charges the worker's last grant — iters
// iterations of job owed, if any — and chooses the job whose master the
// worker's next request goes to, at the worker's latest clock reading. It
// returns that job's attempt — nil when no job wants credit, together
// with the generation to idle on — or false once the scheduler is
// closed.
// Arbitration is strict priority first — no job receives credit while a
// job of a higher priority class still has chunks to hand out — and
// weighted deficit-round-robin within a class: every round each such
// job's deficit grows by weight·quantum iterations, a grant is charged
// at the iterations it actually holds, and the job with the largest
// positive deficit spends next. Because a grant may overdraw (the policy
// decides chunk sizes, the arbiter doesn't split them), debt carries
// across rounds and long-run granted-iteration totals converge to the
// weight ratio. Preemption is implicit and exact: admitting a
// higher-priority job merely redirects future requests — chunks already
// granted stay where they are and run to completion, so no iteration is
// ever lost or re-executed.
func (s *Scheduler) pick(now time.Time, owed *Job, iters int) (*attempt, uint64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if owed != nil {
		owed.deficit -= float64(iters)
	}
	if s.closed {
		return nil, 0, false
	}
	s.expireLocked(now)
	for i := 0; i < len(s.active); {
		end := i + 1
		for end < len(s.active) && s.active[end].spec.Priority == s.active[i].spec.Priority {
			end++
		}
		if j := s.pickClassLocked(s.active[i:end]); j != nil {
			return j.att.Load(), s.gen, true
		}
		i = end
	}
	return nil, s.gen, true
}

// pickClassLocked runs deficit-round-robin over one priority class:
// among its jobs whose master has chunks left, the one with the largest
// positive deficit, replenishing the class as often as it takes; nil
// when none has any. Callers hold s.mu.
func (s *Scheduler) pickClassLocked(class []*Job) *Job {
	for {
		var best *Job
		wanting := false
		for _, j := range class {
			if !j.wantsCredit() {
				continue
			}
			wanting = true
			if j.deficit > 0 && (best == nil || j.deficit > best.deficit) {
				best = j
			}
		}
		if best != nil || !wanting {
			return best
		}
		// New round: replenish the class; debt carries.
		for _, j := range class {
			if j.wantsCredit() {
				j.deficit += j.weight() * float64(s.quantum)
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
