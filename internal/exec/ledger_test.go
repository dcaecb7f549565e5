package exec

import (
	"bytes"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// TestLedgerMixedTransportsOneListener runs a mixed fleet on one sniffed
// listener — a gob worker, a serial binary worker and a binary worker
// with the pipeline, at three different powers. Every grant,
// whichever transport asked, is a draw on the policy. For a
// step-deterministic scheme the chunk tally
// must still equal the scheme's nominal step count (ledger.Build's), and
// every iteration must arrive exactly once.
func TestLedgerMixedTransportsOneListener(t *testing.T) {
	const n = 900
	for _, scheme := range []sched.Scheme{
		sched.TSSScheme{}, sched.CSSScheme{K: 7}, sched.GSSScheme{},
		sched.DTSSScheme{}, sched.NewDCSS(4),
	} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, addr, stop := startMaster(t, scheme, n, 3)
			defer stop()

			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: intKernel, Transport: TransportNetRPC, Pipeline: true, VirtualPower: 2},
				{ID: 1, Kernel: intKernel, Transport: TransportBinary, VirtualPower: 3},
				{ID: 2, Kernel: intKernel, Transport: TransportBinary, Pipeline: true},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n {
				t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
			}
			if !sched.Distributed(scheme) {
				if want := nominalSteps(t, scheme, n, 3); rep.Chunks != want {
					t.Fatalf("chunks = %d, want the scheme's %d steps granted exactly once", rep.Chunks, want)
				}
			}
			for i, r := range results {
				if !bytes.Equal(r, intKernel(i)) {
					t.Fatalf("result %d corrupted: %v", i, r)
				}
			}
		})
	}
}

// TestLedgerReplanClosesTheUnitTable flips a majority of ACPs mid-run
// on a distributed scheme: one extra process lands on two of the three
// machines from each one's second request on. With the pipeline on,
// that request is a prefetch sent while the worker still computes its
// first chunk, so the run cannot have ended and the master sees both
// new ACPs before it grants again: it re-plans what is left from them
// (dispense.Claim's majority rule). Every iteration
// still runs exactly once, the re-plan is counted, and nothing hangs
// (the package's leak check joins every goroutine).
func TestLedgerReplanClosesTheUnitTable(t *testing.T) {
	const n = 20000
	for _, scheme := range []sched.Scheme{sched.NewDCSS(4), sched.DTSSScheme{}, sched.NewDFSS()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, addr, stop := startMaster(t, scheme, n, 3)
			defer stop()
			runs := make([]atomic.Int32, n)
			kernel := func(i int) []byte {
				runs[i].Add(1)
				return intKernel(i)
			}
			// LoadProbe runs once per request, on the worker's goroutine.
			loadedAfterFirst := func() func() int {
				var requests int
				return func() int {
					if requests++; requests > 1 {
						return 1
					}
					return 0
				}
			}
			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: kernel, Transport: TransportBinary, Pipeline: true, VirtualPower: 3, LoadProbe: loadedAfterFirst()},
				{ID: 1, Kernel: kernel, Transport: TransportBinary, Pipeline: true, VirtualPower: 1, LoadProbe: loadedAfterFirst()},
				{ID: 2, Kernel: kernel, Transport: TransportBinary, Pipeline: true, VirtualPower: 2},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n || rep.Replans < 1 {
				t.Fatalf("iterations = %d, replans = %d; want %d and at least one re-plan", rep.Iterations, rep.Replans, n)
			}
			for i := range runs {
				if c := runs[i].Load(); c != 1 {
					t.Fatalf("iteration %d ran %d times", i, c)
				}
				if !bytes.Equal(results[i], intKernel(i)) {
					t.Fatalf("result %d corrupted: %v", i, results[i])
				}
			}
		})
	}
}

// TestLedgerAllWireWorkers puts every worker on the binary wire, one of
// them at half speed: every grant is a reply to
// a request, drawn from FSS's policy, so the run is the scheme's nominal
// steps, each granted once.
func TestLedgerAllWireWorkers(t *testing.T) {
	const n = 1200
	m, addr, stop := startMaster(t, sched.FSSScheme{}, n, 3)
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, Transport: TransportBinary},
		{ID: 1, Kernel: intKernel, Transport: TransportBinary, WorkScale: 2},
		{ID: 2, Kernel: intKernel, Transport: TransportBinary},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
	}
	if want := nominalSteps(t, sched.FSSScheme{}, n, 3); rep.Chunks != want {
		t.Fatalf("chunks = %d, want %d", rep.Chunks, want)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted: %v", i, r)
		}
	}
}

// TestLedgerIneligibleAdvisory pins LedgerMode's contract on JobState:
// "on" is accepted and ignored — for a feedback scheme and a
// step-deterministic one alike, the job plans its policy — and an
// unknown mode is an error.
func TestLedgerIneligibleAdvisory(t *testing.T) {
	for _, scheme := range []sched.Scheme{sched.AWFScheme{}, sched.TSSScheme{}} {
		cfg := JobConfig{Scheme: scheme, Workload: workload.Uniform{N: 100}, Workers: 2, Ledger: LedgerOn}
		js, err := NewJobState(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !js.d.Planned() {
			t.Fatalf("%s: ledger mode on left the job unplanned", scheme.Name())
		}
		cfg.Ledger = "sideways"
		if _, err := NewJobState(cfg); err == nil {
			t.Fatal("unknown ledger mode accepted")
		}
	}
}
