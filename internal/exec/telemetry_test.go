package exec

import (
	"io"
	"net/http"
	"strings"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// TestRPCTelemetrySession attaches a full telemetry session — bus,
// aggregator, and live debug HTTP server — to a TCP master–worker run
// and checks the aggregated counters reconcile with the master's
// report. The package's leak-checked TestMain verifies that closing the
// session tears the debug server and drainer down alongside the
// master's own Shutdown path.
func TestRPCTelemetrySession(t *testing.T) {
	tele, err := telemetry.New(telemetry.Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	const n = 600
	m, addr, stop := serveMaster(t, Config{Scheme: sched.GSSScheme{}, Iterations: n, Workers: 2, Telemetry: tele.Bus()})
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, Telemetry: tele.Bus(), TelemetryID: 0},
		{ID: 1, Kernel: intKernel, Telemetry: tele.Bus(), TelemetryID: 1, WorkScale: 2},
	})
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	tele.Bus().Flush()

	snap := tele.Aggregator().Snapshot()
	if int(snap.ChunksGranted) != rep.Chunks {
		t.Errorf("snapshot chunks granted %d, report says %d", snap.ChunksGranted, rep.Chunks)
	}
	if int(snap.Iterations) != n {
		t.Errorf("snapshot iterations %d, want %d", snap.Iterations, n)
	}
	if snap.Dropped != 0 {
		t.Errorf("%d events dropped", snap.Dropped)
	}

	// The debug server is live for the duration of the run.
	resp, err := http.Get("http://" + tele.DebugAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "loopsched_chunks_granted_total") {
		t.Errorf("/metrics missing grant counter:\n%s", body)
	}

	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
}
