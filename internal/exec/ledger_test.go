package exec

import (
	"bytes"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// TestLedgerMixedTransportsOneListener runs a mixed fleet on one sniffed
// listener — a gob worker, a binary worker with a window and a binary
// worker with the pipeline, at three different powers — against the
// master's scheduling-step ledger. For a step-deterministic scheme the
// master arms a step table and every grant, whichever transport asked,
// is a claim on its counter: the chunk tally must equal the table's
// step count. A distributed scheme (DTSS, DCSS) arms no table, not even
// a unit table, and is granted from its policy. Every iteration must
// arrive exactly once either way.
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
				{ID: 1, Kernel: intKernel, Transport: TransportBinary, Window: 2, VirtualPower: 3},
				{ID: 2, Kernel: intKernel, Transport: TransportBinary, Window: 2, Pipeline: true},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n {
				t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
			}
			tab := m.d.Table()
			if sched.Distributed(scheme) {
				if tab != nil {
					t.Fatalf("a table (units = %v) is armed for %s", tab.Units(), scheme.Name())
				}
			} else if tab == nil || tab.Units() {
				t.Fatalf("no step table armed for %s: %v", scheme.Name(), tab)
			} else if want := tab.Steps(); rep.Chunks != want {
				t.Fatalf("chunks = %d, want the table's %d steps granted exactly once", rep.Chunks, want)
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
// on a share-deterministic distributed scheme — the case whose unit
// table a re-plan would have to close. The master arms no unit table
// (no Run backend asks the dispenser for Units), so the re-plan is its
// policy's: one extra process lands on two of the three machines from
// each one's second request on. With the pipeline on, that request is a
// prefetch sent while the worker still computes its first chunk, so the
// run cannot have ended and the master sees both new ACPs before it
// grants again: it re-plans what is left from them. Every iteration
// still runs exactly once, the re-plan is counted, no table is armed
// after it, and nothing hangs (the package's leak check joins every
// goroutine).
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
			if m.d.Table() != nil {
				t.Fatal("a table is armed after the re-plan")
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

// TestLedgerAllWireWorkers puts every worker on the binary wire, at
// three windows and one of them at half speed, against the master's
// step table: every grant is a reply to a request, drawn from the
// table's counter, so the run is the table's steps, each granted once.
func TestLedgerAllWireWorkers(t *testing.T) {
	const n = 1200
	m, addr, stop := startMaster(t, sched.FSSScheme{}, n, 3)
	defer stop()
	tab := m.d.Table()
	if tab == nil {
		t.Fatal("no step table armed for FSS")
	}

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, Transport: TransportBinary, Window: 2},
		{ID: 1, Kernel: intKernel, Transport: TransportBinary, Window: 4, WorkScale: 2},
		{ID: 2, Kernel: intKernel, Transport: TransportBinary, Window: 1},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
	}
	if rep.Chunks != tab.Steps() {
		t.Fatalf("chunks = %d, want %d", rep.Chunks, tab.Steps())
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted: %v", i, r)
		}
	}
}

// TestLedgerIneligibleAdvisory pins LedgerMode's advisory contract on
// JobState: "on" for a feedback scheme is not an error, the job simply
// stays on its policy; an unknown mode is.
func TestLedgerIneligibleAdvisory(t *testing.T) {
	cfg := JobConfig{Scheme: sched.AWFScheme{}, Workload: workload.Uniform{N: 100}, Workers: 2, Ledger: LedgerOn}
	js, err := NewJobState(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if js.LedgerActive() {
		t.Fatal("ledger armed for a feedback scheme")
	}
	cfg.Ledger = "sideways"
	if _, err := NewJobState(cfg); err == nil {
		t.Fatal("unknown ledger mode accepted")
	}
}
