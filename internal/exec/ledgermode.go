package exec

import "os"

// LedgerMode selects whether a service job's refills draw from the
// scheduling-step ledger (internal/ledger, JobConfig.Ledger): one
// fetch-and-add on a step counter plus table lookups, instead of the
// job's policy under its mutex. The mode is a request, not a guarantee
// — a scheme that is not step-deterministic (docs/LEDGER.md
// "Eligibility") silently keeps the policy, so "on" is always safe.
// exec.Master takes no mode: it arms a step table for every eligible
// scheme, and every grant is a reply to a request.
type LedgerMode string

const (
	// LedgerOff keeps every refill on the job's policy.
	LedgerOff LedgerMode = "off"
	// LedgerOn claims refills from the fetch-and-add ledger whenever the
	// scheme is eligible.
	LedgerOn LedgerMode = "on"
)

// LedgerEnv is the environment variable consulted by DefaultLedger,
// letting a test matrix or deployment flip every default-mode run
// without code changes.
const LedgerEnv = "LOOPSCHED_LEDGER"

// DefaultLedger resolves the mode used when none is set explicitly:
// the LOOPSCHED_LEDGER environment variable when it names a known
// mode, otherwise off.
func DefaultLedger() LedgerMode {
	switch LedgerMode(os.Getenv(LedgerEnv)) {
	case LedgerOn:
		return LedgerOn
	case LedgerOff:
		return LedgerOff
	}
	return LedgerOff
}

// Normalize maps the zero value to the environment default and
// reports whether m names a known mode.
func (m LedgerMode) Normalize() (LedgerMode, bool) {
	switch m {
	case "":
		return DefaultLedger(), true
	case LedgerOff, LedgerOn:
		return m, true
	}
	return m, false
}
