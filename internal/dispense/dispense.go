// Package dispense is the paper's master algorithm, once: gather every
// slave's available computing power A_i (step 1(a)), plan the scheme
// over the iterations that are left, re-plan when a majority of the
// A_i changed (step 2(c)), and hand out the next [start, end).
//
// Every runtime in this repository — the channel, steal/service and
// rpc masters (the last also behind the mp backend), the three
// hierarchical submasters and both simulators — owns one Dispenser and
// differs only in how a claim travels to it: the waiting (condition
// variable, channel, event heap), the clock, the telemetry and the
// completion accounting stay at the site. This is the split of chunk calculation from chunk
// assignment of Eleliemy & Ciorba (arXiv:2101.07050); DESIGN.md "The
// dispenser" states the rules.
//
// Concurrency: a Dispenser has no lock of its own. Report, Revise,
// Feedback, Stage and a policy-backed Claim must be serialised by the
// caller — the mutex or single master goroutine it already has. A stage
// that armed a table publishes it and its counter as one object behind
// one atomic pointer (Ledger): Claim and Ledger.FetchAdd are then one
// atomic fetch-and-add plus immutable lookups, safe from any number of
// goroutines, also while a later Stage or a Revise swaps the object — a
// claimant still holding the old one gets what is left of it, or
// nothing.
package dispense

import (
	"sync/atomic"

	"loopsched/internal/acp"
	"loopsched/internal/ledger"
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
	// Table asks each stage to arm a step table when ledger.Build
	// accepts the scheme; draws are then lock-free. Ineligible schemes
	// silently keep the policy, so asking is always safe.
	Table bool
	// Units also asks for a unit table (ledger.BuildUnits) where no step
	// table can be had: a share-deterministic distributed scheme is then
	// handed out in units of computing power from the ACPs the stage was
	// planned with, and Revise — not Claim — takes the majority re-plan.
	// Only a site that can route a changed ACP to Revise asks.
	Units bool
}

// Ledger is what a stage that armed a table publishes: the table and
// the counter that hands it out, as one object. Remote claimants hold
// Table() as their replica and claim through FetchAdd.
type Ledger struct {
	tab     *ledger.Table
	base    int // chunk starts in tab are relative to the stage
	ctr     ledger.Local
	drained atomic.Bool
}

// Table returns the armed table; its chunk starts are relative to the
// stage.
func (l *Ledger) Table() *ledger.Table { return l.tab }

// FetchAdd is the raw one-sided claim behind the wire protocol's
// FetchAdd frame: reserve n steps — or units, on a unit table — and
// return the first. A result at or past Table().End() claimed nothing:
// the table is drained, or a re-plan closed it.
func (l *Ledger) FetchAdd(n int) uint64 {
	first, _ := l.ctr.FetchAdd(n)
	return first
}

// Claim is Dispenser.Claim on this ledger, whatever the dispenser has
// staged since: the lock-free draw of a site that loaded the ledger and
// must not fall onto a policy another goroutine re-planned in meanwhile.
// On a unit table a chunk is the span of acpNow units — the paper's
// C_j = SC_k·A_j/A with the A_j of this request, the plan's A_j when the
// request carries none; on a step table it is one step.
func (l *Ledger) Claim(worker, acpNow, max int, dst []sched.Assignment) []sched.Assignment {
	a := acpNow
	if a < 1 || !l.tab.Units() {
		a = l.tab.Share(worker)
	}
	if a < 1 {
		a = 1
	}
	for got := len(dst); len(dst) == got; {
		n := l.tab.SpanBatch(l.ctr.Next(), a, max)
		u := l.FetchAdd(n * a)
		for i := 0; i < n; i++ {
			s, ok := l.tab.Span(u+uint64(i*a), a)
			if !ok {
				// Past the table's end the claim is wasted: the counter
				// only moves forward, so nothing is handed out twice and
				// nothing needs retracting.
				l.drained.Store(true)
				return dst
			}
			if s.Size == 0 {
				continue // a share that rounds to nothing; draw again
			}
			s.Start += l.base
			dst = append(dst, s)
		}
	}
	return dst
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
	next       int // policy path: first iteration not yet handed out
	policy     sched.Policy
	fb         sched.FeedbackPolicy // policy, when it learns from completions
	replans    int

	led     atomic.Pointer[Ledger] // armed table of the stage, or nil
	drained atomic.Bool            // policy path; a Ledger carries its own
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
	// Any build failure (ineligible scheme, over-long sequence) keeps
	// the policy; a bad configuration fails NewPolicy below.
	var tab *ledger.Table
	cfg := sched.Config{Iterations: size, Workers: d.cfg.Workers}
	if d.cfg.Table {
		tab, _ = ledger.Build(d.cfg.Scheme, cfg)
	}
	if tab == nil && d.cfg.Units {
		if tab, _ = ledger.BuildUnits(d.cfg.Scheme, cfg, d.liveACP); tab != nil {
			copy(d.planACP, d.liveACP)
		}
	}
	if tab == nil {
		d.led.Store(nil)
		if err := d.plan(); err != nil {
			return err
		}
	} else {
		d.led.Store(&Ledger{tab: tab, base: start})
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
	copy(d.planACP, d.liveACP)
	return nil
}

// Planned reports whether a stage has been planned.
func (d *Dispenser) Planned() bool { return d.policy != nil || d.led.Load() != nil }

// Feedback applies one completed chunk's measured cost to a learning
// policy (AWF); other policies ignore it. Call it before the Claim it
// rode in on, so a re-plan on that claim does not discard it unseen.
func (d *Dispenser) Feedback(worker int, work, elapsed float64) {
	if d.fb != nil && elapsed > 0 {
		d.fb.Feedback(worker, work, elapsed)
	}
}

// Revise is Report for a site that asked for unit tables: a unit-table
// stage is drawn lock-free and its Claim records nothing, so the site
// sends every ACP that differs from the worker's last one here. When a
// majority of ACPs now differ from the plan's, the stage re-plans: the
// ledger is closed — one fetch-add past its end, which returns the
// first unit u* no claim had taken — and a policy over [P(u*), end of
// the stage) is planned from the live ACPs. A claim racing the close
// landed either wholly before it, and is valid under the old plan, or
// past the end, and is void, exactly like a drain. On any other stage
// Revise only records. An error means the policy could not be built;
// nothing can be claimed any more.
func (d *Dispenser) Revise(worker, acpNow int) (replanned bool, err error) {
	d.liveACP[worker] = acpNow
	l := d.led.Load()
	if l == nil || !l.tab.Units() || d.cfg.NoReplan || !acp.MajorityChanged(d.planACP, d.liveACP) {
		return false, nil
	}
	d.next = l.base + l.tab.Pos(l.ctr.Close())
	d.led.Store(nil)
	if err := d.plan(); err != nil {
		return false, err
	}
	d.replans++
	return true, nil
}

// Claim appends to dst the next chunks for worker, at most max and at
// least one unless the stage is drained, and returns dst. The batch is
// share-bounded (sched.BatchLimit over what the stage has left): a
// table knows every chunk's size and meets the bound exactly; a policy
// cannot be asked a chunk's size without granting it, so there the
// batch ends as soon as one more chunk the size of the last would pass
// the bound — exact for the paper's non-increasing sequences.
//
// On a table the draw is Ledger.Claim and records nothing — see Revise.
//
// Off the table Claim first records acpNow — also when no stage is
// planned or the stage is drained, so the next Stage sees it — and, for
// a distributed scheme, re-plans over the remaining iterations when a
// majority of ACPs differ from the ones the current plan was built
// from; replanned reports that it did. A re-plan that fails keeps the
// plan.
func (d *Dispenser) Claim(worker, acpNow, max int, dst []sched.Assignment) (_ []sched.Assignment, replanned bool) {
	if l := d.led.Load(); l != nil {
		return l.Claim(worker, acpNow, max, dst), false
	}
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
	limit := 0
	if max > 1 {
		limit = sched.BatchLimit(d.base+d.size-d.next, d.size, d.cfg.Workers)
	}
	req := sched.Request{Worker: worker, ACP: float64(acpNow)}
	for iters, n := 0, 0; n < max; n++ {
		a, ok := d.policy.Next(req)
		if !ok {
			d.drained.Store(true)
			break
		}
		d.next = a.End()
		dst = append(dst, a)
		if iters += a.Size; iters+a.Size > limit {
			break
		}
	}
	return dst, replanned
}

// Next is Claim for the masters that grant one chunk per request.
func (d *Dispenser) Next(worker, acpNow int) (a sched.Assignment, ok, replanned bool) {
	var one [1]sched.Assignment
	got, replanned := d.Claim(worker, acpNow, 1, one[:0])
	if len(got) == 0 {
		return sched.Assignment{}, false, replanned
	}
	return got[0], true, replanned
}

// Drained reports whether the stage has been handed out in full (true
// before the first Stage). A flat run never un-drains: a re-plan covers
// only what is left, which is nothing by then.
func (d *Dispenser) Drained() bool {
	if l := d.led.Load(); l != nil {
		return l.drained.Load()
	}
	return d.drained.Load()
}

// Replans returns how many majority re-plans Claim and Revise have
// taken.
func (d *Dispenser) Replans() int { return d.replans }

// Ledger returns what the stage armed — its table and counter — or nil
// on the policy path.
func (d *Dispenser) Ledger() *Ledger { return d.led.Load() }

// Table returns the stage's armed table, or nil on the policy path.
func (d *Dispenser) Table() *ledger.Table {
	if l := d.led.Load(); l != nil {
		return l.tab
	}
	return nil
}
