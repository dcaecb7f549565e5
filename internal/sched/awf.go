package sched

// AWFScheme is Adaptive Weighted Factoring (in the spirit of
// Banicescu & Liu's AWF, the best-known successor of the paper's
// scheme family): factoring stages whose per-worker share follows
// weights learned from *measured* chunk execution rates, rather than
// from the run-queue-based ACP the paper's distributed schemes use.
// The two adaptation channels are complementary — ACP reacts before
// the slowdown is observed (the OS reports the run queue), AWF reacts
// to ground truth including effects the run queue cannot see (cache,
// memory pressure, thermal throttling) — which makes AWF the natural
// ablation point for the paper's §3 model (see
// BenchmarkAblationFeedback).
//
// Masters deliver measurements through the FeedbackPolicy interface;
// until a worker has a measurement its weight is the plan-time power
// (1 for unknown).
type AWFScheme struct {
	// Alpha is the factoring parameter; ≤ 0 selects 2.
	Alpha float64
}

func (s AWFScheme) alpha() float64 {
	if s.Alpha <= 0 {
		return 2
	}
	return s.Alpha
}

func (AWFScheme) Name() string { return "AWF" }

// Distributed: AWF adapts at run time (through timing instead of run
// queues), so the paper's section-6 definition applies.
func (AWFScheme) Distributed() bool { return true }

// FeedbackPolicy is implemented by policies that learn from completed
// chunks. Masters that know the execution outcome call Feedback after
// every chunk; policies that don't implement it are unaffected.
type FeedbackPolicy interface {
	Policy
	// Feedback reports that `worker` finished a chunk of `work` cost
	// units in `elapsed` seconds.
	Feedback(worker int, work, elapsed float64)
}

// Learns reports whether s builds policies that learn from completed
// chunks. It probes a one-worker policy for FeedbackPolicy, so a new
// learning scheme is recognised without a list to keep up to date.
func Learns(s Scheme) bool {
	pol, err := s.NewPolicy(Config{Iterations: 1, Workers: 1})
	_, ok := pol.(FeedbackPolicy)
	return err == nil && ok
}

func (s AWFScheme) NewPolicy(cfg Config) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p := &awfPolicy{
		counter: newCounter(cfg),
		cfg:     cfg,
		alpha:   s.alpha(),
		rates:   make([]float64, cfg.Workers),
		weights: make([]float64, cfg.Workers),
	}
	for i := range p.weights {
		p.weights[i] = cfg.Power(i)
	}
	return p, nil
}

type awfPolicy struct {
	counter
	cfg        Config
	alpha      float64
	slotsLeft  int
	stageTotal float64
	rates      []float64 // measured work units per second (EWMA)
	weights    []float64 // current share weights
}

// ewma smoothing for measured rates: new measurements count double the
// history, reacting within a couple of chunks without thrashing.
const awfSmoothing = 2.0 / 3.0

func (p *awfPolicy) Feedback(worker int, work, elapsed float64) {
	if worker < 0 || worker >= len(p.rates) || elapsed <= 0 || work <= 0 {
		return
	}
	rate := work / elapsed
	if p.rates[worker] == 0 {
		p.rates[worker] = rate
	} else {
		p.rates[worker] = awfSmoothing*rate + (1-awfSmoothing)*p.rates[worker]
	}
	// Re-derive weights. Measured workers use their measured rate;
	// unmeasured workers keep their plan-time prior, *calibrated* into
	// rate units via the measured population (mean rate per unit of
	// prior weight), so a single early measurement neither starves nor
	// floods anyone.
	var rateSum, priorSum float64
	for i, r := range p.rates {
		if r > 0 {
			rateSum += r
			priorSum += p.cfg.Power(i)
		}
	}
	if priorSum <= 0 {
		return
	}
	ratePerPrior := rateSum / priorSum
	for i, r := range p.rates {
		if r > 0 {
			p.weights[i] = r
		} else {
			p.weights[i] = p.cfg.Power(i) * ratePerPrior
		}
	}
}

func (p *awfPolicy) Next(req Request) (Assignment, bool) {
	if p.Remaining() == 0 {
		return Assignment{}, false
	}
	if p.slotsLeft == 0 {
		p.stageTotal = float64(p.Remaining()) / p.alpha
		p.slotsLeft = p.cfg.Workers
	}
	p.slotsLeft--
	var total float64
	for _, w := range p.weights {
		total += w
	}
	w := p.weights[0]
	if req.Worker >= 0 && req.Worker < len(p.weights) {
		w = p.weights[req.Worker]
	}
	size := RoundHalfEven.apply(p.stageTotal * w / total)
	return p.take(size)
}

func init() {
	Register(AWFScheme{})
}
