package sched

import (
	"fmt"
	"math"
)

// Section 6 opens with the observation that "any self-scheduling
// scheme discussed in section 2 can become a Master-Slave centralized
// distributed scheme". The paper only works out the stage-based ones
// (DFSS/DFISS/DTFSS) plus DTSS; this file provides the same lift for
// the per-request schemes — GSS and CSS — as the natural extension:
//
//	C_j = simple chunk at effective worker count p · (A_j·p / A)
//
// i.e. the simple scheme's chunk for a *unit-share* worker, scaled by
// how many unit shares the requester represents. With all ACPs equal
// the lift is exact: DGSS ≡ GSS and DCSS(k) ≡ CSS(k), which the tests
// verify.

// requestChunker computes the unit-share chunk for the underlying
// simple scheme.
type requestChunker interface {
	// unit returns the chunk a power-1/p worker would get with R
	// iterations remaining.
	unit(remaining int) float64
}

// RequestDistributedScheme lifts a per-request chunk rule into a
// distributed scheme (the counterpart of DistributedScheme for schemes
// without stage structure).
type RequestDistributedScheme struct {
	name string
	mk   func(cfg Config) requestChunker
}

func (d RequestDistributedScheme) Name() string { return d.name }

// Distributed marks the scheme as load-adaptive for sched.Distributed.
func (RequestDistributedScheme) Distributed() bool { return true }

// ShareDeterministic: the unit-share chunk depends on how much is left
// and a request enters only as A_j·p/A.
func (RequestDistributedScheme) ShareDeterministic() bool { return true }

func (d RequestDistributedScheme) NewPolicy(cfg Config) (Policy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &requestDistPolicy{
		counter: newCounter(cfg),
		cfg:     cfg,
		chunker: d.mk(cfg),
		total:   cfg.TotalPower(),
	}, nil
}

type requestDistPolicy struct {
	counter
	cfg     Config
	chunker requestChunker
	total   float64
}

func (rp *requestDistPolicy) Next(req Request) (Assignment, bool) {
	if rp.Remaining() == 0 {
		return Assignment{}, false
	}
	acp := req.ACP
	if acp <= 0 {
		acp = rp.cfg.Power(req.Worker)
	}
	share := acp * float64(rp.cfg.Workers) / rp.total
	size := RoundHalfEven.apply(rp.chunker.unit(rp.Remaining()) * share)
	return rp.take(size)
}

// dgssChunker: GSS's ⌈R/p⌉ with an optional minimum chunk.
type dgssChunker struct {
	p   int
	min int
}

func (c dgssChunker) unit(remaining int) float64 {
	v := math.Ceil(float64(remaining) / float64(c.p)) // GSS's ⌈R/p⌉
	if m := float64(c.min); v < m {
		v = m
	}
	return v
}

// dcssChunker: CSS's fixed k.
type dcssChunker struct{ k int }

func (c dcssChunker) unit(int) float64 { return float64(c.k) }

// NewDGSS returns Distributed Guided Self-Scheduling: each request is
// answered with ⌈R/A⌉·A_j iterations (minChunk < 1 means no floor).
// The paper sets GSS aside in favour of its linearised approximation
// TSS; DGSS completes the section-6 family for comparison.
func NewDGSS(minChunk int) Scheme {
	if minChunk < 1 {
		minChunk = 1
	}
	name := "DGSS"
	if minChunk > 1 {
		name = fmt.Sprintf("DGSS(%d)", minChunk)
	}
	return RequestDistributedScheme{name: name, mk: func(cfg Config) requestChunker {
		return dgssChunker{p: cfg.Workers, min: minChunk}
	}}
}

// NewDCSS returns Distributed Chunk Self-Scheduling: the fixed chunk
// k is scaled by each requester's power share, the load-aware version
// of CSS(k). k < 1 means 1.
func NewDCSS(k int) Scheme {
	if k < 1 {
		k = 1
	}
	return RequestDistributedScheme{name: fmt.Sprintf("DCSS(%d)", k),
		mk: func(cfg Config) requestChunker { return dcssChunker{k: k} }}
}

func init() {
	Register(NewDGSS(1))
	Register(NewDCSS(16))
}
