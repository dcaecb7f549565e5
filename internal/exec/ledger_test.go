package exec

import (
	"bytes"
	"math"
	"net"
	"sync/atomic"
	"testing"

	"loopsched/internal/loadgen"
	"loopsched/internal/sched"
)

// startLedgerMaster is startMaster with the ledger armed before Serve
// (SetLedger's contract — the serve loop reads the table unlocked).
func startLedgerMaster(t *testing.T, s sched.Scheme, iterations, workers int) (*Master, string, func()) {
	t.Helper()
	m, err := NewMaster(s, iterations, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLedger(LedgerOn); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Serve(l); err != nil {
		t.Fatal(err)
	}
	return m, l.Addr().String(), func() { l.Close() }
}

// TestLedgerMixedTransportsOneListener runs the fetch-and-add ledger in
// a mixed fleet on one sniffed listener: a gob worker whose grants come
// off the ledger counter through the master path, a binary worker
// holding a table replica that claims with one-sided FetchAdd frames,
// and a binary worker without a replica on the batched-grant protocol.
// All three draw from the same counter, so every iteration must arrive
// exactly once. On a step table the chunk tally must equal the table's
// step count; on the unit table of a distributed scheme (DTSS, DCSS:
// three workers of unequal power on one unit counter, armed only after
// the gather) the chunks are whatever the interleaving made them, and
// the tally must be at least the homogeneous sequence's share of them.
func TestLedgerMixedTransportsOneListener(t *testing.T) {
	const n = 900
	for _, scheme := range []sched.Scheme{
		sched.TSSScheme{}, sched.CSSScheme{K: 7}, sched.GSSScheme{},
		sched.DTSSScheme{}, sched.NewDCSS(4),
	} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, addr, stop := startLedgerMaster(t, scheme, n, 3)
			defer stop()
			if !m.LedgerActive() {
				t.Fatalf("ledger did not arm for %s", scheme.Name())
			}
			units := sched.ShareDeterministic(scheme)
			if armed := m.Ledger() != nil; armed == units {
				t.Fatalf("table armed before the first request = %v for %s", armed, scheme.Name())
			}

			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: intKernel, Transport: TransportNetRPC, Pipeline: true, VirtualPower: 2},
				{ID: 1, Kernel: intKernel, Transport: TransportBinary, Window: 2, LedgerTable: m.Ledger, VirtualPower: 3},
				{ID: 2, Kernel: intKernel, Transport: TransportBinary, Window: 2, Pipeline: true},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n {
				t.Fatalf("iterations = %d, want %d", rep.Iterations, n)
			}
			tab := m.Ledger()
			if tab == nil || tab.Units() != units {
				t.Fatalf("table after the run: %v", tab)
			}
			if units {
				if tab.Share(0) != 20 || tab.Share(1) != 30 || tab.Share(2) != 10 {
					t.Fatalf("unit table planned from %d:%d:%d, want the gathered 20:30:10", tab.Share(0), tab.Share(1), tab.Share(2))
				}
				if rep.Chunks < tab.Steps()/2 || rep.Replans != 0 {
					t.Fatalf("chunks = %d for a %d-step homogeneous sequence, replans = %d", rep.Chunks, tab.Steps(), rep.Replans)
				}
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

// TestLedgerReplanClosesTheUnitTable drives a load script that flips a
// majority of ACPs mid-run with the ledger on: one extra process lands
// on two of the three machines once a quarter of the loop is computed
// (the script's clock is iterations done, so the flip does not depend
// on how fast the host is). The two workers leave their claim loops on
// their own, their reports close the unit table, the third finds it
// closed, and the rest of the loop is granted from the re-planned
// policy. Every iteration runs exactly once, the re-plan is counted,
// and nothing hangs (the package's leak check joins every goroutine).
func TestLedgerReplanClosesTheUnitTable(t *testing.T) {
	const n = 20000
	for _, scheme := range []sched.Scheme{sched.NewDCSS(4), sched.DTSSScheme{}, sched.NewDFSS()} {
		t.Run(scheme.Name(), func(t *testing.T) {
			m, addr, stop := startLedgerMaster(t, scheme, n, 3)
			defer stop()
			script := loadgen.Window(n/4, math.Inf(1), 1)
			var done atomic.Int64
			runs := make([]atomic.Int32, n)
			kernel := func(i int) []byte {
				runs[i].Add(1)
				done.Add(1)
				return intKernel(i)
			}
			loaded := func() int { return script.ExtraAt(float64(done.Load())) }
			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: kernel, Transport: TransportBinary, Pipeline: true, LedgerTable: m.Ledger, VirtualPower: 3, LoadProbe: loaded},
				{ID: 1, Kernel: kernel, Transport: TransportBinary, Pipeline: true, LedgerTable: m.Ledger, VirtualPower: 1, LoadProbe: loaded},
				{ID: 2, Kernel: kernel, Transport: TransportBinary, Pipeline: true, LedgerTable: m.Ledger, VirtualPower: 2},
			})
			results, rep, err := m.Wait()
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n || rep.Replans < 1 {
				t.Fatalf("iterations = %d, replans = %d; want %d and at least one re-plan", rep.Iterations, rep.Replans, n)
			}
			if m.Ledger() != nil {
				t.Fatal("the unit table is still armed after the re-plan")
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

// TestLedgerAllWireWorkers is the pure one-sided configuration: every
// worker holds a table replica, so after the hello deposits the master
// only ever sees FetchAdd claims and no-reply completion deposits.
func TestLedgerAllWireWorkers(t *testing.T) {
	const n = 1200
	m, addr, stop := startLedgerMaster(t, sched.FSSScheme{}, n, 3)
	defer stop()
	tab := m.Ledger()
	if tab == nil {
		t.Fatal("ledger did not arm for FSS")
	}

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, Transport: TransportBinary, Window: 2, LedgerTable: m.Ledger},
		{ID: 1, Kernel: intKernel, Transport: TransportBinary, Window: 4, LedgerTable: m.Ledger, WorkScale: 2},
		{ID: 2, Kernel: intKernel, Transport: TransportBinary, Window: 1, LedgerTable: m.Ledger},
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

// TestLedgerIneligibleAdvisory pins SetLedger's advisory contract on
// the master: "on" for a feedback scheme is not an error, the master
// simply stays on the request/grant path.
func TestLedgerIneligibleAdvisory(t *testing.T) {
	m, err := NewMaster(sched.AWFScheme{}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.SetLedger(LedgerOn); err != nil {
		t.Fatal(err)
	}
	if m.LedgerActive() {
		t.Fatal("ledger armed for a feedback scheme")
	}
	if err := m.SetLedger("sideways"); err == nil {
		t.Fatal("unknown ledger mode accepted")
	}
}
