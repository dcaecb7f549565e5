package exec

import "os"

// LedgerMode selects whether eligible runs use the decentralized
// scheduling ledger (internal/ledger): workers claim scheduling steps
// with a fetch-and-add and compute their own chunk boundaries from a
// replicated table, instead of round-tripping every chunk through the
// master's grant path. The mode is a request, not a guarantee — a
// scheme that is neither step-deterministic nor, on the rpc master,
// share-deterministic (docs/LEDGER.md "Eligibility") silently stays on
// the master path, so "on" is always safe.
type LedgerMode string

const (
	// LedgerOff keeps every grant on the request/reply master path.
	LedgerOff LedgerMode = "off"
	// LedgerOn claims chunks from the fetch-and-add ledger whenever the
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
