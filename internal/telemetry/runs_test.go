package telemetry

import (
	"math"
	"strings"
	"testing"

	"loopsched/internal/trace"
)

// runEvents is one run of 8 chunks of 4 iterations granted to worker 0
// and completed in 0.8 s, and one single chunk of 4 — an event with no
// Count, as the simulator publishes — granted to and completed by worker 1.
var runEvents = []Event{
	{Kind: ChunkGranted, Worker: 0, Start: 0, Size: 32, Count: 8, Seconds: 0.001, At: 1.0, Span: 1},
	{Kind: ChunkPrefetched, Worker: 1, Start: 32, Size: 4, Seconds: 0.002, At: 1.0, Span: 33},
	{Kind: ChunkCompleted, Worker: 0, Start: 0, Size: 32, Count: 8, Seconds: 0.8, At: 2.0, Span: 1},
	{Kind: ChunkCompleted, Worker: 1, Start: 32, Size: 4, Seconds: 0.1, At: 1.5, Span: 33},
}

// TestConsumersCountRunsAsChunks: every consumer that counts chunks or
// reads a chunk's time reads a run event through Chunks — the
// aggregator's chunk counters and histograms, the flight recorder's
// EWMA, the trace a TraceSubscriber rebuilds, one row per chunk, and the
// Perfetto slice's count — while an event without a Count is one chunk.
func TestConsumersCountRunsAsChunks(t *testing.T) {
	if (Event{}).Chunks() != 1 || runEvents[0].Chunks() != 8 {
		t.Fatalf("Chunks: %d for no count, %d for a run of 8", (Event{}).Chunks(), runEvents[0].Chunks())
	}

	a := NewAggregator(nil)
	a.BeginRun(RunMeta{Backend: "local"})
	feed(a, runEvents...)
	s := a.Snapshot()
	w0, w1 := s.Workers["0/0"], s.Workers["0/1"]
	if s.ChunksGranted != 9 || w0.Chunks != 8 || w0.Completed != 8 || w1.Chunks != 1 || w1.Completed != 1 {
		t.Errorf("aggregator: %d chunks granted, worker 0 %+v, worker 1 %+v; want 9, 8 and 1 each", s.ChunksGranted, w0, w1)
	}
	if math.Abs(w0.WaitSec-0.008) > 1e-12 || s.LatencyCount != 9 {
		t.Errorf("aggregator: worker 0 waited %g s, %d latencies; want 8 chunks of 1 ms, 9 latencies", w0.WaitSec, s.LatencyCount)
	}
	h := s.Hists["local"]
	if h.QueueWait.Count != 9 || h.Comp.Count != 9 || h.GrantToComplete.Count != 9 || h.Comm.Count != 9 {
		t.Errorf("aggregator histograms count %d / %d / %d / %d, want 9 each",
			h.QueueWait.Count, h.Comp.Count, h.GrantToComplete.Count, h.Comm.Count)
	}
	if got := h.Comp.Mean(); math.Abs(got-0.9/9) > 0.01 {
		t.Errorf("mean chunk compute time %g, want about %g", got, 0.9/9)
	}

	f := NewFlightRecorder(nil, 0)
	f.BeginRun(RunMeta{Workers: 2})
	feedFlight(f, runEvents...)
	fs := f.Snapshot()
	if len(fs.Workers) != 2 || fs.Workers[0].Chunks != 8 || math.Abs(fs.Workers[0].EWMA-0.1) > 1e-12 || fs.Workers[0].Busy != 0.8 {
		t.Errorf("flight recorder rows %+v, want worker 0 at 8 chunks of 0.1 s, 0.8 s busy", fs.Workers)
	}

	tr := &trace.Trace{}
	ts := TraceSubscriber(tr)
	for _, e := range runEvents {
		ts.OnEvent(e)
	}
	if err := tr.CoverageError(36); err != nil || tr.Len() != 9 {
		t.Fatalf("trace of %d rows: %v", tr.Len(), err)
	}
	k := 0
	for _, e := range tr.Events() {
		if e.Worker != 0 {
			continue
		}
		if e.Start != 4*k || e.Size != 4 || math.Abs(e.Begin-(1.2+0.1*float64(k))) > 1e-12 || math.Abs(e.End-e.Begin-0.1) > 1e-12 {
			t.Errorf("worker 0's trace row %d is %+v, want chunk [%d, +4) over [%g, %g]", k, e, 4*k, 1.2+0.1*float64(k), 1.3+0.1*float64(k))
		}
		k++
	}

	var sb strings.Builder
	p := NewPerfettoWriter(&sb)
	p.BeginRun(RunMeta{Workers: 2})
	for _, e := range runEvents {
		p.OnEvent(e)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	counts := map[string][]float64{}
	for _, e := range decodeTrace(t, []byte(sb.String())) {
		if args, ok := e["args"].(map[string]any); ok && args["count"] != nil {
			counts[e["ph"].(string)] = append(counts[e["ph"].(string)], args["count"].(float64))
		}
	}
	if x, s := counts["X"], counts["s"]; len(x) != 2 || x[0] != 8 || x[1] != 1 || len(s) != 2 || s[0] != 8 || s[1] != 1 {
		t.Errorf("perfetto slice counts %v and flow counts %v, want [8 1] each", x, s)
	}
}
