package sched

// DTSSScheme is Distributed Trapezoid Self-Scheduling (Xu &
// Chronopoulos 1999, as improved in section 5.2 of the paper). The
// master computes the trapezoid with p := A (the total available
// computing power) and answers a request from slave P_i, whose ACP is
// A_i, with
//
//	C = A_i · (F − D·(S_{i−1} + (A_i − 1)/2))
//
// where S_{i−1} is the cumulative ACP of all previously answered
// requests: the slave receives the A_i consecutive unit-power chunks
// it is entitled to, collapsed into one message. Slaves piggy-back a
// fresh A_i on every request; the master (see the executors) re-plans
// when more than half of them changed.
type DTSSScheme struct {
	// Last overrides the trapezoid's final chunk size L (default 1).
	Last int
}

func (DTSSScheme) Name() string { return "DTSS" }

// Distributed marks the scheme as load-adaptive for sched.Distributed.
func (DTSSScheme) Distributed() bool { return true }

// ShareDeterministic: a request takes the A_i unit-power chunks that
// follow S_{i−1}, whoever makes it.
func (DTSSScheme) ShareDeterministic() bool { return true }

func (s DTSSScheme) NewPolicy(cfg Config) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a := cfg.TotalPower()
	aInt := RoundNearest(a)
	if aInt < 1 {
		aInt = 1
	}
	prm := ComputeTSSParams(cfg.Iterations, aInt, 0, s.Last)
	return &dtssPolicy{
		counter: newCounter(cfg),
		cfg:     cfg,
		f:       float64(prm.F),
		l:       float64(prm.L),
		// D is kept fractional: with p = A the integer ⌊(F−L)/(N−1)⌋
		// collapses to 0 for large A and the trapezoid would
		// degenerate into fixed chunks.
		d: trapezoidSlope(cfg.Iterations, prm),
	}, nil
}

// trapezoidSlope returns the real-valued decrement (F−L)/(N−1).
func trapezoidSlope(iterations int, prm TSSParams) float64 {
	if prm.N <= 1 {
		return 0
	}
	return float64(prm.F-prm.L) / float64(prm.N-1)
}

type dtssPolicy struct {
	counter
	cfg Config
	f   float64 // first chunk per unit power
	l   float64 // last chunk per unit power
	d   float64 // slope per unit power
	s   float64 // S_{i−1}: cumulative ACP of previous assignments
}

func (t *dtssPolicy) Next(req Request) (Assignment, bool) {
	acp := req.ACP
	if acp <= 0 {
		acp = t.cfg.Power(req.Worker)
	}
	if acp < 1 {
		acp = 1
	}
	perUnit := t.f - t.d*(t.s+(acp-1)/2)
	if perUnit < t.l {
		perUnit = t.l
	}
	size := RoundNearest(acp * perUnit)
	t.s += acp
	return t.take(size)
}

func init() {
	Register(DTSSScheme{})
}
