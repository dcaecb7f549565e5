// Package leakcheck asserts at the end of a test binary that no
// goroutines from the package under test survived its tests. It is a
// hand-rolled, dependency-free analogue of go.uber.org/goleak: the
// gojoin analyzer (internal/lint) proves statically that every
// goroutine has a join point; this package checks dynamically that the
// joins actually fire.
//
// Usage, from a package's TestMain:
//
//	func TestMain(m *testing.M) {
//		os.Exit(leakcheck.Main(m))
//	}
//
// Main runs the tests and, if they pass, polls the runtime's goroutine
// stacks until only known-benign goroutines remain or a grace period
// expires. Legitimately asynchronous teardown (a conn reader between
// Close and its WaitGroup join) gets time to finish; anything still
// alive after the grace period is reported with its full stack.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// graceDefault bounds how long Main waits for stragglers to unwind.
const graceDefault = 5 * time.Second

// benign reports whether a single goroutine stack is expected to
// survive the tests: runtime helpers, the testing harness itself, and
// the net poller, none of which the package under test owns.
func benign(stack string) bool {
	for _, marker := range []string{
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*M).",
		"testing.runTests",
		"testing.runFuzzing",
		"testing.runFuzzTests",
		"runtime.goexit",
		"created by runtime.gc",
		"created by runtime.createFakeM",
		"runtime.MHeap_Scavenger",
		"runtime.ReadTrace",
		"signal.signal_recv",
		"sigterm.handler",
		"runtime_mcall",
		"(*loggingT).flushDaemon",
		"goroutine in C code",
		"runtime.CPUProfile",
		// The goroutine currently running the leak check.
		"loopsched/internal/leakcheck.Check(",
	} {
		if strings.Contains(stack, marker) {
			return true
		}
	}
	return false
}

// leaked returns the stacks of non-benign goroutines, one per entry.
func leaked() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	var out []string
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" || benign(g) {
			continue
		}
		out = append(out, g)
	}
	return out
}

// Check polls until no goroutines leak or the grace period expires,
// returning the stacks of the survivors (nil means clean). Exported so
// individual tests can assert mid-run teardown, not just at exit.
func Check(grace time.Duration) []string {
	deadline := time.Now().Add(grace)
	var last []string
	for {
		last = leaked()
		if len(last) == 0 || time.Now().After(deadline) {
			return last
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// testingM matches *testing.M without importing the testing package
// into non-test builds of dependents.
type testingM interface{ Run() int }

// Main runs the package's tests and then the leak check. The returned
// code is for os.Exit: the tests' own code when they fail, 1 when they
// pass but goroutines leaked, 0 otherwise.
func Main(m testingM) int {
	code := m.Run()
	if code != 0 {
		return code
	}
	if stacks := Check(graceDefault); len(stacks) != 0 {
		fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) survived the tests:\n\n%s\n",
			len(stacks), strings.Join(stacks, "\n\n"))
		return 1
	}
	return 0
}
