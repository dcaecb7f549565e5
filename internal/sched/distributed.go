package sched

import "fmt"

// The distributed schemes of section 6 follow the pattern the paper
// extracts from DTSS: a stage-based simple scheme provides the stage
// total SC_k, and the request from slave P_j is answered with
//
//	C_j^k = SC_k · A_j / A
//
// where A_j is the ACP piggy-backed on the request and A the total
// ACP recorded when the master (re)planned. A stage consists of p
// chunk-slots, matching FSS's "groups of p chunks" structure; in a
// homogeneous system (all A_j equal) each distributed scheme reduces
// exactly to its simple counterpart, which the tests verify.

// stageTotals yields the SC_k series for one run of a distributed
// scheme.
type stageTotals interface {
	// next returns SC_k for the stage starting with `remaining`
	// unassigned iterations; stage is 0-based.
	next(stage, remaining int) float64
}

// DistributedScheme lifts a stage-total rule into a full scheme.
type DistributedScheme struct {
	name string
	mk   func(cfg Config) stageTotals
}

func (d DistributedScheme) Name() string { return d.name }

// Distributed marks the scheme as load-adaptive for sched.Distributed.
func (DistributedScheme) Distributed() bool { return true }

func (d DistributedScheme) NewPolicy(cfg Config) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &distPolicy{
		counter: newCounter(cfg),
		cfg:     cfg,
		totals:  d.mk(cfg),
		total:   cfg.TotalPower(),
	}, nil
}

type distPolicy struct {
	counter
	cfg        Config
	totals     stageTotals
	total      float64 // A at plan time
	stage      int
	slotsLeft  int
	stageTotal float64
}

func (dp *distPolicy) Next(req Request) (Assignment, bool) {
	if dp.Remaining() == 0 {
		return Assignment{}, false
	}
	if dp.slotsLeft == 0 {
		dp.stageTotal = dp.totals.next(dp.stage, dp.Remaining())
		dp.stage++
		dp.slotsLeft = dp.cfg.Workers
	}
	dp.slotsLeft--
	acp := req.ACP
	if acp <= 0 {
		acp = dp.cfg.Power(req.Worker)
	}
	size := RoundHalfEven.apply(dp.stageTotal * acp / dp.total)
	return dp.take(size)
}

// dfssTotals: factoring stage total SC_k = R/α (α = 2 by default).
//
// Fidelity note: the paper's section 6 literally writes
// SC_k = ⌊2·R_{i−1}/A⌋, but together with C_j = SC_k·A_j/A that gives
// per-worker chunks 2R·A_j/A², which reduces to FSS's R/(2p) only when
// p = 4 — the worked example's worker count. The power-invariant
// reading (stage total = half the remaining work, split by ACP share)
// reduces to FSS for every p and is what we implement.
type dfssTotals struct{ alpha float64 }

func (t dfssTotals) next(_, remaining int) float64 {
	return float64(remaining) / t.alpha
}

// dfissTotals: SC_0 = ⌊I/X⌋ and SC_{k+1} = SC_k + B with
// B = ⌈2I(1−σ/X)/(σ(σ−1))⌉ (section 6, modification iii); the final
// stage absorbs the remainder as in our FISS.
type dfissTotals struct {
	sigma int
	sc0   int
	bump  int
}

func newDFISSTotals(cfg Config, sigma, x int) *dfissTotals {
	i := cfg.Iterations
	b := 2 * i * (x - sigma)
	den := x * sigma * (sigma - 1)
	bump := (b + den - 1) / den // ceiling, per the paper's ⌈·⌉
	return &dfissTotals{sigma: sigma, sc0: i / x, bump: bump}
}

func (t *dfissTotals) next(stage, remaining int) float64 {
	if stage >= t.sigma-1 {
		return float64(remaining)
	}
	return float64(t.sc0 + stage*t.bump)
}

// dtfssTotals: the trapezoid parameters are computed with p := A
// (DTSS step 1b), and the stage total is the sum of the next A nominal
// TSS chunks, so that per unit of power the chunk decreases linearly.
// With all ACPs equal to 1 this is exactly TFSS's stage total.
type dtfssTotals struct {
	prm   TSSParams
	group int // number of nominal chunks summed per stage (≈ A)
	cTSS  int // head of the nominal sequence
}

func newDTFSSTotals(cfg Config) *dtfssTotals {
	a := cfg.TotalPower()
	aInt := RoundNearest(a)
	if aInt < 1 {
		aInt = 1
	}
	prm := ComputeTSSParams(cfg.Iterations, aInt, 0, 0)
	return &dtfssTotals{prm: prm, group: aInt, cTSS: prm.F}
}

func (t *dtfssTotals) next(_, _ int) float64 {
	sum := 0
	for j := 0; j < t.group; j++ {
		c := t.cTSS - j*t.prm.D
		if c < t.prm.L {
			c = t.prm.L
		}
		sum += c
	}
	t.cTSS -= t.group * t.prm.D
	return float64(sum)
}

// NewDFSS returns Distributed Factoring Self-Scheduling.
func NewDFSS() Scheme {
	return DistributedScheme{name: "DFSS", mk: func(cfg Config) stageTotals {
		return dfssTotals{alpha: 2}
	}}
}

// NewDFISS returns Distributed Fixed-Increase Self-Scheduling with
// σ stages (σ < 2 selects 3) and X = σ + 2.
func NewDFISS(sigma int) Scheme {
	if sigma < 2 {
		sigma = 3
	}
	name := "DFISS"
	if sigma != 3 {
		name = fmt.Sprintf("DFISS(σ=%d)", sigma)
	}
	return DistributedScheme{name: name, mk: func(cfg Config) stageTotals {
		return newDFISSTotals(cfg, sigma, sigma+2)
	}}
}

// NewDTFSS returns Distributed Trapezoid Factoring Self-Scheduling,
// the distributed version of the paper's new TFSS scheme.
func NewDTFSS() Scheme {
	return DistributedScheme{name: "DTFSS", mk: func(cfg Config) stageTotals {
		return newDTFSSTotals(cfg)
	}}
}

// Offset wraps a policy so that its assignments start at base instead
// of zero. Masters use it when re-planning mid-run (DTSS step 2c):
// the fresh policy schedules the remaining iterations, and Offset maps
// them back into the original index space. A learning policy
// (FeedbackPolicy) keeps its feedback channel through the wrapper.
func Offset(p Policy, base int) Policy {
	o := &offsetPolicy{p: p, base: base}
	if fb, ok := p.(FeedbackPolicy); ok {
		return &offsetFeedbackPolicy{offsetPolicy: o, fb: fb}
	}
	return o
}

type offsetFeedbackPolicy struct {
	*offsetPolicy
	fb FeedbackPolicy
}

func (o *offsetFeedbackPolicy) Feedback(worker int, work, elapsed float64) {
	o.fb.Feedback(worker, work, elapsed)
}

type offsetPolicy struct {
	p    Policy
	base int
}

func (o *offsetPolicy) Next(req Request) (Assignment, bool) {
	a, ok := o.p.Next(req)
	if !ok {
		return Assignment{}, false
	}
	a.Start += o.base
	return a, true
}

func (o *offsetPolicy) Remaining() int { return o.p.Remaining() }

func init() {
	Register(NewDFSS())
	Register(NewDFISS(0))
	Register(NewDTFSS())
}
