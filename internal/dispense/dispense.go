// Package dispense is the paper's master algorithm, once: gather every
// slave's available computing power A_i (step 1(a)), plan the scheme
// over the iterations that are left, re-plan when a majority of the
// A_i changed (step 2(c)), and hand out the next [start, end).
//
// Every runtime in this repository — exec.Master behind every Run
// backend (local, rpc, mp and the hierarchical submasters) and every
// scheduler job, and the simulator's master (flat, and every shard of a
// simulated hierarchy) — holds one Book around one Dispenser and differs
// only in how a claim travels to it: the waiting (link, condition
// variable, event heap), the clock, the telemetry and the result bytes
// stay at the site. This is the split of chunk calculation from chunk
// assignment of Eleliemy & Ciorba (arXiv:2101.07050), with the
// assignment side's account (Book) in one place too; DESIGN.md "The
// dispenser" states the rules.
//
// Concurrency: a Dispenser has no lock of its own. Report, Feedback,
// Stage and Claim must be serialised by the caller — the mutex or
// single master goroutine it already has. Drained alone may be read
// from any goroutine.
package dispense

import (
	"sync/atomic"

	"loopsched/internal/acp"
	"loopsched/internal/sched"
)

// Config describes the workers a Dispenser plans for.
type Config struct {
	Scheme  sched.Scheme
	Workers int
	// Powers are the workers' static virtual powers V_i, for the
	// schemes that split by plan-time weights (WF, WS). nil means the
	// caller has no machine table: those schemes then weigh by the ACPs
	// reported so far, which is equal weights for a master that plans
	// before its first request.
	Powers []float64
	// NoReplan turns the majority re-plan off (ablation runs, and every
	// hierarchical site: a super-chunk is re-planned at its boundary).
	NoReplan bool
}

// Dispenser hands out one loop, or one super-chunk of it at a time.
type Dispenser struct {
	cfg      Config
	dist     bool // the scheme plans from run-time ACPs
	weighted bool // the scheme plans from static weights

	liveACP []int  // latest report per worker
	planACP []int  // reports the current plan was built from
	seen    []bool // workers that have reported at least once
	unseen  int

	base, size int // the stage: iterations [base, base+size)
	next       int // first iteration not yet handed out
	policy     sched.Policy
	fb         sched.FeedbackPolicy // policy, when it learns from completions
	fixed      int                  // the policy's fixed chunk size (SS, CSS), or 0
	replans    int

	drained atomic.Bool // read without the caller's lock (Drained)
}

// New returns a Dispenser with no stage: nothing can be claimed until
// Stage plans one.
func New(cfg Config) *Dispenser {
	d := &Dispenser{
		cfg:      cfg,
		dist:     sched.Distributed(cfg.Scheme),
		liveACP:  make([]int, cfg.Workers),
		planACP:  make([]int, cfg.Workers),
		seen:     make([]bool, cfg.Workers),
		unseen:   cfg.Workers,
		weighted: Weighted(cfg.Scheme),
	}
	d.drained.Store(true)
	return d
}

// Weighted reports whether the scheme splits by static weights (WF, WS):
// the only plans Config.Powers changes.
func Weighted(s sched.Scheme) bool {
	switch s.(type) {
	case sched.WFScheme, sched.WeightedStaticScheme:
		return true
	}
	return false
}

// Report records worker's current ACP and says whether this was its
// first report.
func (d *Dispenser) Report(worker, acpNow int) (first bool) {
	d.liveACP[worker] = acpNow
	if d.seen[worker] {
		return false
	}
	d.seen[worker] = true
	d.unseen--
	return true
}

// Gathered reports whether every worker has reported at least once —
// the paper's step 1(a). A master of a distributed scheme waits for it
// before the first Stage; how it waits is its own business.
func (d *Dispenser) Gathered() bool { return d.unseen == 0 }

// ACP returns worker's latest reported ACP (0 before its first report).
func (d *Dispenser) ACP(worker int) int { return d.liveACP[worker] }

// Stage plans iterations [start, start+size) and makes them the ones
// Claim hands out. A flat master stages the whole loop once; a
// submaster stages every super-chunk its root grants, each a fresh
// plan from the latest reports.
func (d *Dispenser) Stage(start, size int) error {
	d.base, d.size, d.next = start, size, start
	d.policy, d.fb = nil, nil
	if err := d.plan(); err != nil {
		return err
	}
	d.drained.Store(false)
	return nil
}

// plan builds the policy over what is left of the stage. Distributed
// schemes see the live ACPs; static-weight schemes the static powers,
// or the live ACPs in their place when the caller has none; everything
// else plans for a homogeneous system.
func (d *Dispenser) plan() error {
	cfg := sched.Config{Iterations: d.base + d.size - d.next, Workers: d.cfg.Workers}
	switch {
	case d.weighted && d.cfg.Powers != nil:
		cfg.Powers = d.cfg.Powers
	case d.weighted || d.dist:
		cfg.Powers = make([]float64, len(d.liveACP))
		for i, a := range d.liveACP {
			if a < 1 {
				a = 1
			}
			cfg.Powers[i] = float64(a)
		}
	}
	pol, err := d.cfg.Scheme.NewPolicy(cfg)
	if err != nil {
		return err
	}
	if d.next != 0 {
		pol = sched.Offset(pol, d.next)
	}
	d.policy = pol
	d.fb, _ = pol.(sched.FeedbackPolicy)
	d.fixed, _ = sched.FixedChunk(d.cfg.Scheme, cfg)
	copy(d.planACP, d.liveACP)
	return nil
}

// Planned reports whether a stage has been planned.
func (d *Dispenser) Planned() bool { return d.policy != nil }

// Feedback applies one completed chunk's measured cost to a learning
// policy (AWF); other policies ignore it. Call it before the Claim it
// rode in on, so a re-plan on that claim does not discard it unseen.
func (d *Dispenser) Feedback(worker int, work, elapsed float64) {
	if d.fb != nil && elapsed > 0 {
		d.fb.Feedback(worker, work, elapsed)
	}
}

// Claim appends to dst the next chunks for worker, at most max and at
// least one unless the stage is drained, as runs of equal, contiguous
// chunks, and returns dst. The batch is share-bounded (sched.BatchLimit
// over what the stage has left): a policy cannot be asked a chunk's size
// without granting it, so the batch ends as soon as one more chunk the
// size of the last would pass the bound — exact for the paper's
// non-increasing sequences. A fixed-chunk policy (SS, CSS) hands out its
// batch in one step (claimFixed); any other is asked chunk by chunk, and
// each chunk that continues the last one at its size joins its run.
//
// Claim first records acpNow — also when no stage is planned or the
// stage is drained, so the next Stage sees it — and, for a distributed
// scheme, re-plans over the remaining iterations when a majority of
// ACPs differ from the ones the current plan was built from; replanned
// reports that it did. A re-plan that fails keeps the plan.
func (d *Dispenser) Claim(worker, acpNow, max int, dst []sched.Run) (_ []sched.Run, replanned bool) {
	d.liveACP[worker] = acpNow
	if d.policy == nil {
		return dst, false
	}
	if d.dist && !d.cfg.NoReplan && acp.MajorityChanged(d.planACP, d.liveACP) {
		if err := d.plan(); err == nil {
			d.replans++
			replanned = true
		}
	}
	left, limit := d.base+d.size-d.next, 0
	if max > 1 {
		limit = sched.BatchLimit(left, d.size, d.cfg.Workers)
	}
	if d.fixed > 0 {
		return d.claimFixed(dst, max, left, limit), replanned
	}
	req, from := sched.Request{Worker: worker, ACP: float64(acpNow)}, len(dst)
	for iters, n := 0, 0; n < max; n++ {
		a, ok := d.policy.Next(req)
		if !ok {
			d.drained.Store(true)
			break
		}
		d.next = a.End()
		if k := len(dst) - 1; k >= from && dst[k].Size == a.Size && dst[k].End() == a.Start {
			dst[k].Count++
		} else {
			dst = append(dst, sched.Run{Start: a.Start, Size: a.Size, Count: 1})
		}
		if iters += a.Size; iters+a.Size > limit {
			break
		}
	}
	return dst, replanned
}

// claimFixed is Claim's batch from a policy whose every chunk is d.fixed
// iterations, the stage's last clipped to what is left: the chunks the
// policy would hand out one by one up to the same cut, taken as at most
// two runs, with the stage drained exactly when that walk would have
// found it empty. left and limit are Claim's.
func (d *Dispenser) claimFixed(dst []sched.Run, most, left, limit int) []sched.Run {
	k, n, iters := d.fixed, 0, 0 // the chunk size; chunks taken, and their iterations
	if most < 1 {
		return dst
	}
	if t := min(most, left/k, max(1, limit/k)); t > 0 {
		dst = append(dst, sched.Run{Start: d.next, Size: k, Count: t})
		d.next, n, iters = d.next+t*k, t, t*k
		if n == most || iters+k > limit {
			return dst
		}
	}
	// Every full chunk is out: what is left is one clipped chunk, or none.
	if r := left - iters; r > 0 {
		dst = append(dst, sched.Run{Start: d.next, Size: r, Count: 1})
		d.next, n, iters = d.next+r, n+1, iters+r
		if n == most || iters+r > limit {
			return dst
		}
	}
	d.drained.Store(true)
	return dst
}

// Drained reports whether the stage has been handed out in full (true
// before the first Stage). A flat run never un-drains: a re-plan covers
// only what is left, which is nothing by then.
func (d *Dispenser) Drained() bool { return d.drained.Load() }

// Replans returns how many majority re-plans Claim has taken.
func (d *Dispenser) Replans() int { return d.replans }
