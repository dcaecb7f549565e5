package exec

// LedgerMode is the ledger mode a service job (JobConfig.Ledger) or a
// Run (RunSpec.Ledger) names. It is accepted and ignored: no runtime
// arms a scheduling-step table, and every grant is the dispenser's
// locked Claim. An unknown mode is still an error.
type LedgerMode string

const (
	// LedgerOff is the policy path every grant takes.
	LedgerOff LedgerMode = "off"
	// LedgerOn is accepted for compatibility and runs the policy path.
	LedgerOn LedgerMode = "on"
)

// Normalize maps the zero value to LedgerOff and reports whether m
// names a known mode.
func (m LedgerMode) Normalize() (LedgerMode, bool) {
	switch m {
	case "":
		return LedgerOff, true
	case LedgerOff, LedgerOn:
		return m, true
	}
	return m, false
}
