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

// TestBusRepliesAreChunkByChunk: with a telemetry bus a master grants a
// run chunk by chunk — one grant, one span and one ChunkPrefetched event
// per chunk — so its reply frame is the one a master that booked chunk
// by chunk sent: byte for byte the span-tagged encoding of those chunks.
// Without a bus the same request is granted the same chunks as one run.
func TestBusRepliesAreChunkByChunk(t *testing.T) {
	const k, depth = 4, 64
	var want []sched.Assignment
	var spans []uint64
	for c := range depth {
		want = append(want, sched.Assignment{Start: c * k, Size: k})
		spans = append(spans, telemetry.SpanID(0, c*k))
	}
	golden, err := appendFrame(&wire.Reply{Grants: want, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	for _, withBus := range []bool{true, false} {
		cfg := Config{Scheme: sched.CSSScheme{K: k}, Iterations: 1 << 16, Workers: 2}
		col := &grantCollector{}
		if withBus {
			cfg.Telemetry = telemetry.NewBus(0)
			cfg.Telemetry.Subscribe(col)
		}
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.Reply
		if err := m.nextBatch(ChunkArgs{Worker: 0, Prefetch: true}, depth, &rep); err != nil {
			t.Fatal(err)
		}
		if got := replyChunks(&rep); !slices.Equal(got, want) {
			t.Fatalf("bus %v: granted %v, want the first %d chunks of %d", withBus, got, depth, k)
		}
		if !withBus {
			if len(rep.Grants) != 1 || len(rep.Spans) != 0 {
				t.Errorf("without a bus the grant is %d grants and %d spans, want one run", len(rep.Grants), len(rep.Spans))
			}
			continue
		}
		frame, err := appendFrame(&rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, golden) {
			t.Errorf("the bus master's reply frame is\n% x\nwant the per-chunk frame\n% x", frame, golden)
		}
		if err := cfg.Telemetry.Close(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(col.grants, want) {
			t.Errorf("the bus saw grants %v, want one event per chunk", col.grants)
		}
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
