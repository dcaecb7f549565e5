package loopsched_test

import (
	"strings"
	"testing"

	"loopsched"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
)

// TestSchemeRegistryRoundTrip pins the catalogue API contract: every
// name SchemeNames advertises resolves through LookupScheme, back to a
// scheme carrying that exact name, in any letter case.
func TestSchemeRegistryRoundTrip(t *testing.T) {
	names := loopsched.SchemeNames()
	if len(names) < 10 {
		t.Fatalf("suspiciously small registry: %v", names)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Errorf("SchemeNames lists %q twice", name)
		}
		seen[name] = true
		s, err := loopsched.LookupScheme(name)
		if err != nil {
			t.Errorf("advertised name %q does not resolve: %v", name, err)
			continue
		}
		if s.Name() != name {
			t.Errorf("LookupScheme(%q) returned scheme named %q", name, s.Name())
		}
		for _, variant := range []string{strings.ToLower(name), strings.ToUpper(name)} {
			v, err := loopsched.LookupScheme(variant)
			if err != nil {
				t.Errorf("lookup is not case-insensitive: %q failed: %v", variant, err)
				continue
			}
			if v.Name() != s.Name() {
				t.Errorf("LookupScheme(%q) = %q, want %q", variant, v.Name(), s.Name())
			}
		}
	}
	if _, err := loopsched.LookupScheme("no-such-scheme"); err == nil {
		t.Error("unknown scheme name resolved")
	}
}

// TestDescribeSchemesCoversCatalogue checks the prose catalogue and
// the machine-readable one agree: DescribeSchemes with no filter
// documents every SchemeCatalogue entry, and per-name filters select
// exactly that entry.
func TestDescribeSchemesCoversCatalogue(t *testing.T) {
	cat := loopsched.SchemeCatalogue()
	if len(cat) == 0 {
		t.Fatal("empty catalogue")
	}
	all := loopsched.DescribeSchemes("")
	for _, info := range cat {
		header := info.Name + " (" + info.Category + ")"
		if !strings.Contains(all, header) {
			t.Errorf("DescribeSchemes omits %q", header)
		}
		if info.Formula == "" || !strings.Contains(all, info.Formula) {
			t.Errorf("DescribeSchemes omits the chunk rule of %s", info.Name)
		}
		only := loopsched.DescribeSchemes(info.Name)
		if !strings.Contains(only, info.Formula) {
			t.Errorf("DescribeSchemes(%q) misses its own formula", info.Name)
		}
	}
}

// TestSchemeLedgerClasses pins the two-way classification of
// docs/LEDGER.md "Eligibility" for every registered scheme: a step
// table (step-deterministic) or the policy — the paper's distributed
// family among the latter, since their chunks read the request's ACP. A
// scheme cannot register, or change class, without this table saying
// where it goes; ledger.Build must agree with the declaration.
func TestSchemeLedgerClasses(t *testing.T) {
	const step, policy = "step", "policy"
	want := map[string]string{
		"S": step, "SS": step, "CSS(16)": step, "CSS(125)": step, "GSS": step, "GSS(8)": step,
		"TSS": step, "FSS": step, "FISS": step, "TFSS": step,
		"DTSS": policy, "DFSS": policy, "DFISS": policy, "DTFSS": policy, "DCSS(16)": policy, "DGSS": policy,
		"WS": policy, "WF": policy, "AWF": policy,
	}
	cfg := sched.Config{Iterations: 1000, Workers: 2}
	for _, name := range loopsched.SchemeNames() {
		s, err := loopsched.LookupScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		class := policy
		if sched.StepDeterministic(s) {
			class = step
		}
		if w, ok := want[name]; !ok {
			t.Errorf("%s is registered but not classified here (it declares %q)", name, class)
		} else if class != w {
			t.Errorf("%s declares %q, want %q", name, class, w)
		}
		if class == step && sched.Distributed(s) {
			t.Errorf("%s is step-deterministic but distributed: it would be staged before the gather", name)
		}
		if _, err := ledger.Build(s, cfg); (err == nil) != (class == step) {
			t.Errorf("%s (%s): ledger.Build error = %v", name, class, err)
		}
		delete(want, name)
	}
	for name := range want {
		t.Errorf("%s is classified here but not registered", name)
	}
}
