package exec

import (
	"bytes"
	"io"
	"net/http"
	"slices"
	"strings"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
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

// TestBusRepliesAreTheSameRuns: a master with a telemetry bus answers a
// request with the grants and counts a bus-less master answers it with —
// here one run of the first 64 chunks — and adds only the reply's span
// block, one span for the run, and one ChunkPrefetched event covering
// it. So the traced reply frame is the untraced one with the span flag
// set and the span appended.
func TestBusRepliesAreTheSameRuns(t *testing.T) {
	const k, depth = 4, 64
	var replies [2]wire.Reply
	log := &eventLog{}
	for i, withBus := range []bool{false, true} {
		cfg := Config{Scheme: sched.CSSScheme{K: k}, Iterations: 1 << 16, Workers: 2}
		if withBus {
			cfg.Telemetry = telemetry.NewBus(0)
			cfg.Telemetry.Subscribe(log)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.nextBatch(ChunkArgs{Worker: 0, Prefetch: true}, depth, &replies[i]); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
	}
	plain, traced := &replies[0], &replies[1]
	if len(plain.Grants) != 1 || plain.Run(0) != (sched.Run{Start: 0, Size: k, Count: depth}) {
		t.Fatalf("the bus-less master granted %+v, want one run of the first %d chunks of %d", plain, depth, k)
	}
	if !slices.Equal(traced.Grants, plain.Grants) || !slices.Equal(traced.Counts, plain.Counts) || traced.Stop != plain.Stop {
		t.Errorf("the bus master granted %+v, the bus-less one %+v", traced, plain)
	}
	if span := telemetry.SpanID(0, 0); len(plain.Spans) != 0 || !slices.Equal(traced.Spans, []uint64{span}) {
		t.Errorf("spans %v without a bus and %v with one, want none and [%d]", plain.Spans, traced.Spans, span)
	}
	var grants []telemetry.Event
	for _, e := range log.drain() {
		if e.Kind == telemetry.ChunkGranted || e.Kind == telemetry.ChunkPrefetched {
			grants = append(grants, e)
		}
	}
	if len(grants) != 1 || grants[0].Kind != telemetry.ChunkPrefetched || grants[0].Start != 0 ||
		grants[0].Size != k*depth || grants[0].Chunks() != depth || grants[0].Span != telemetry.SpanID(0, 0) {
		t.Errorf("the bus saw grants %+v, want one ChunkPrefetched covering the run", grants)
	}
	pf, err := appendFrame(plain)
	if err != nil {
		t.Fatal(err)
	}
	tf, err := appendFrame(traced)
	if err != nil {
		t.Fatal(err)
	}
	// Both frames are under 128 bytes: a one-byte length prefix, then
	// the type byte and the flags.
	if len(tf) != len(pf)+1 || tf[2] != pf[2]|1<<2 || !bytes.Equal(tf[3:len(pf)], pf[3:]) || tf[len(pf)] != byte(telemetry.SpanID(0, 0)) {
		t.Errorf("the traced reply frame is\n% x\nwant the untraced one\n% x\nwith the span flag and one span", tf, pf)
	}
}

// appendFrame is the reply frame a binary server writes for rep.
func appendFrame(rep *wire.Reply) ([]byte, error) {
	var buf bytes.Buffer
	c := wire.NewServer(nopCloser{&buf}, nil)
	err := c.WriteReply(rep)
	return buf.Bytes(), err
}

// nopCloser is a byte sink a Conn can write to.
type nopCloser struct{ *bytes.Buffer }

func (nopCloser) Close() error { return nil }
