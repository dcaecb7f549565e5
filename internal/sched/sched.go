// Package sched implements the loop self-scheduling schemes studied in
// Chronopoulos, Andonie, Benche and Grosu, "A Class of Loop
// Self-Scheduling for Heterogeneous Clusters" (CLUSTER 2001).
//
// A Scheme is a factory: given the run configuration (total iteration
// count I, worker count p, and — for the distributed schemes — the
// workers' available computing powers), it produces a Policy. The
// master calls Policy.Next once per slave request and hands the
// returned half-open iteration range to the slave. All chunk-size
// arithmetic from the paper (equation (1) and the per-scheme formulas
// of sections 2, 4 and 6) lives behind this interface; masters,
// simulators and executors are scheme-agnostic.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Config describes one scheduling run.
type Config struct {
	// Iterations is I, the total number of loop iterations to schedule.
	Iterations int
	// Workers is p, the number of slave PEs.
	Workers int
	// Powers, if non-nil, holds the available computing power A_j of
	// each worker at plan time (len == Workers). Distributed schemes
	// use these; simple schemes ignore them. A nil Powers means a
	// homogeneous system (every A_j = 1).
	Powers []float64
	// NoClip disables clipping chunk sizes to the remaining iteration
	// count. It exists only so that the Table 1 generator can print
	// the nominal sequences exactly as the paper does; real runs must
	// leave it false.
	NoClip bool
}

// TotalPower returns A, the total available computing power, which is
// the worker count when Powers is nil (homogeneous system).
func (c Config) TotalPower() float64 {
	if c.Powers == nil {
		return float64(c.Workers)
	}
	var a float64
	for _, p := range c.Powers {
		a += p
	}
	return a
}

// Power returns worker w's power (1 when Powers is nil).
func (c Config) Power(w int) float64 {
	if c.Powers == nil || w < 0 || w >= len(c.Powers) {
		return 1
	}
	return c.Powers[w]
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Iterations < 0 {
		return fmt.Errorf("sched: negative iteration count %d", c.Iterations)
	}
	if c.Workers <= 0 {
		return fmt.Errorf("sched: worker count %d must be positive", c.Workers)
	}
	if c.Powers != nil {
		if len(c.Powers) != c.Workers {
			return fmt.Errorf("sched: %d powers for %d workers", len(c.Powers), c.Workers)
		}
		for i, p := range c.Powers {
			if p <= 0 {
				return fmt.Errorf("sched: worker %d has non-positive power %g", i, p)
			}
		}
	}
	return nil
}

// Request is one slave's demand for work.
type Request struct {
	// Worker identifies the requesting slave (0-based).
	Worker int
	// ACP is the slave's available computing power attached to the
	// request (the paper's A_i, piggy-backed on every request in the
	// distributed schemes). Zero or negative means "unknown": the
	// policy falls back to the power recorded at plan time.
	ACP float64
}

// Assignment is the master's reply: work on iterations
// [Start, Start+Size).
type Assignment struct {
	Start int
	Size  int
}

// End returns the first iteration index past the assignment.
func (a Assignment) End() int { return a.Start + a.Size }

// Policy computes successive chunk sizes for a single run. Policies
// are not safe for concurrent use; the master serialises requests
// (which is exactly the paper's centralized model — the serialisation
// is what the simulator charges as master contention).
type Policy interface {
	// Next returns the next assignment for the requesting worker and
	// true, or a zero Assignment and false when no iterations remain.
	Next(req Request) (Assignment, bool)
	// Remaining returns the number of still-unassigned iterations.
	Remaining() int
}

// Scheme creates policies. Implementations are immutable and safe for
// concurrent use; all mutable state lives in the Policy.
type Scheme interface {
	// Name returns the scheme's canonical short name (e.g. "TSS").
	Name() string
	// NewPolicy builds the per-run state. It fails only on invalid
	// configuration.
	NewPolicy(cfg Config) (Policy, error)
}

// Distributed reports whether the scheme consumes run-time ACP
// information (the paper's definition in section 6: distributed
// schemes use both the initial powers and the run-queue lengths).
// Weighted Factoring, which uses only static weights, reports false.
func Distributed(s Scheme) bool {
	type distributed interface{ Distributed() bool }
	if d, ok := s.(distributed); ok {
		return d.Distributed()
	}
	return false
}

// FixedChunker is implemented by schemes whose policies hand every
// requester the same fixed chunk size regardless of request order or
// worker identity (SS, CSS). For those, "next chunk" reduces to a
// fetch-and-add on a shared iteration counter, so a master may grant
// without serialising requests through the policy lock. Stage-based
// schemes (GSS, TSS, factoring, ...) cannot implement this: their
// chunk size depends on how much has already been assigned.
type FixedChunker interface {
	Scheme
	// FixedChunk returns the constant chunk size the scheme would use
	// under cfg, and true; or 0 and false when the configuration makes
	// the size non-constant.
	FixedChunk(cfg Config) (int, bool)
}

// FixedChunk reports the constant chunk size of s under cfg, when s
// grants one. The final chunk is still clipped to the remaining
// iterations, exactly as the policy's counter would (equation (1));
// clipping does not disqualify a scheme.
func FixedChunk(s Scheme, cfg Config) (int, bool) {
	f, ok := s.(FixedChunker)
	if !ok || cfg.NoClip {
		return 0, false
	}
	return f.FixedChunk(cfg)
}

// StepDeterministicScheme is implemented by schemes whose chunk
// sequence is a pure function of the scheduling step: the k-th chunk
// handed out has the same start and size no matter which worker asked
// for it, what ACP it attached, or how requests interleaved. For those
// schemes the whole sequence can be precomputed into a prefix table
// and "next chunk" collapses to a fetch-and-add on a shared step
// counter (the distributed chunk-calculation model of
// arXiv:2101.07050) — see internal/ledger. Schemes that read
// Request.Worker or Request.ACP, or that re-plan from run-time
// feedback, must not implement this.
type StepDeterministicScheme interface {
	Scheme
	// StepDeterministic reports whether every policy the scheme builds
	// ignores the request entirely (worker identity and ACP alike).
	StepDeterministic() bool
}

// StepDeterministic reports whether s declares its chunk sequence to
// be a pure function of the scheduling step. The default — for schemes
// that do not implement StepDeterministicScheme — is false, so new
// schemes are conservatively kept on the policy until they opt in.
func StepDeterministic(s Scheme) bool {
	if d, ok := s.(StepDeterministicScheme); ok {
		return d.StepDeterministic()
	}
	return false
}

// counter is the shared bookkeeping every policy embeds: the next
// iteration index and clipping per equation (1) of the paper.
type counter struct {
	next   int // first unassigned iteration
	total  int // I
	noClip bool
}

func newCounter(cfg Config) counter {
	return counter{total: cfg.Iterations, noClip: cfg.NoClip}
}

func (c *counter) Remaining() int {
	if r := c.total - c.next; r > 0 {
		return r
	}
	return 0
}

// take converts a desired chunk size into an assignment, enforcing a
// minimum chunk of one iteration and clipping to the remaining count
// (unless NoClip, in which case only exhaustion stops the run).
func (c *counter) take(size int) (Assignment, bool) {
	rem := c.Remaining()
	if rem == 0 {
		return Assignment{}, false
	}
	if size < 1 {
		size = 1
	}
	if !c.noClip && size > rem {
		size = rem
	}
	a := Assignment{Start: c.next, Size: size}
	c.next += size
	return a, true
}

// ErrUnknownScheme is returned by Lookup for unregistered names.
var ErrUnknownScheme = errors.New("sched: unknown scheme")

var (
	registryMu sync.RWMutex
	registry   = map[string]Scheme{} // keyed by canonical (upper-case) name
)

// canonical folds a scheme name for case-insensitive lookup.
func canonical(name string) string { return strings.ToUpper(name) }

// Register makes a scheme available to Lookup and Names. The standard
// schemes register themselves; callers may add their own. Registering
// a duplicate name (compared case-insensitively) panics, mirroring
// database/sql's driver registry.
func Register(s Scheme) {
	registryMu.Lock()
	defer registryMu.Unlock()
	key := canonical(s.Name())
	if _, dup := registry[key]; dup {
		panic("sched: duplicate registration of " + s.Name())
	}
	registry[key] = s
}

// Lookup finds a registered scheme by name. Matching is
// case-insensitive: "tss", "TSS" and "Tss" all resolve to TSS.
func Lookup(name string) (Scheme, error) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	s, ok := registry[canonical(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownScheme, name)
	}
	return s, nil
}

// Names returns all registered scheme names (in their canonical
// spelling, as reported by Scheme.Name), sorted.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for _, s := range registry {
		names = append(names, s.Name())
	}
	sort.Strings(names)
	return names
}
