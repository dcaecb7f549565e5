package loopsched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"loopsched"
	"loopsched/internal/telemetry"
)

// scrapeMetrics fetches the Prometheus text exposition from the debug
// server.
func scrapeMetrics(t *testing.T, addr string) string {
	t.Helper()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, body)
	}
	return string(body)
}

// sumMetric adds up every sample of one metric family in Prometheus
// text format (labelled or not).
func sumMetric(t *testing.T, text, name string) float64 {
	t.Helper()
	var sum float64
	found := false
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		if rest != "" && rest[0] != '{' && rest[0] != ' ' {
			continue // a longer metric name sharing the prefix
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		sum += v
		found = true
	}
	if !found {
		t.Fatalf("metric %s not found in:\n%s", name, text)
	}
	return sum
}

// TestTelemetryEndToEnd runs a small Mandelbrot loop on the pipelined
// RPC backend with a live telemetry session attached, then reconciles
// the three views of the same run against each other: the scraped
// /metrics counters, the post-hoc metrics.Report, and the execution
// trace rebuilt from the event stream. It also checks the Perfetto
// export is valid JSON with one complete slice per traced run, whose
// chunk counts add up to the trace's chunks. DTSS grants its chunks one
// at a time; CSS(4) grants runs of many, which every view must count as
// chunks, not events.
func TestTelemetryEndToEnd(t *testing.T) {
	dtss, err := loopsched.LookupScheme("DTSS")
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []loopsched.Scheme{dtss, loopsched.NewCSS(4)} {
		t.Run(scheme.Name(), func(t *testing.T) { checkTelemetryEndToEnd(t, scheme) })
	}
}

func checkTelemetryEndToEnd(t *testing.T, scheme loopsched.Scheme) {
	params := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: 96, Height: 64, MaxIter: 120,
	}
	w := loopsched.MandelbrotWorkload(params)
	kernel := func(i int) []byte { return loopsched.MandelbrotShadedColumn(params, i) }

	var perfetto bytes.Buffer
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{
		DebugAddr: "127.0.0.1:0",
		Perfetto:  &perfetto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()
	if tele.DebugAddr() == "" {
		t.Fatal("no debug server address")
	}

	tr := &loopsched.Trace{}
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:    scheme,
		Workload:  w,
		Backend:   loopsched.BackendRPC,
		Workers:   runWorkers(),
		Kernel:    kernel,
		Pipeline:  true,
		Trace:     tr,
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != params.Width {
		t.Fatalf("report iterations %d, want %d", rep.Iterations, params.Width)
	}

	// The trace was rebuilt from the event stream: every chunk the
	// master granted was computed, completed, and mirrored into it.
	if tr.Len() != rep.Chunks {
		t.Errorf("trace has %d chunks, report says %d", tr.Len(), rep.Chunks)
	}
	if err := tr.CoverageError(params.Width); err != nil {
		t.Errorf("rebuilt trace does not tile the loop: %v", err)
	}

	// Scraped counters reconcile exactly with the report and the trace.
	text := scrapeMetrics(t, tele.DebugAddr())
	if got := sumMetric(t, text, "loopsched_chunks_granted_total"); int(got) != rep.Chunks {
		t.Errorf("scraped chunks granted %g, report says %d", got, rep.Chunks)
	}
	if got := sumMetric(t, text, "loopsched_chunks_granted_total"); int(got) != tr.Len() {
		t.Errorf("scraped chunks granted %g, trace has %d", got, tr.Len())
	}
	if got := sumMetric(t, text, "loopsched_iterations_granted_total"); int(got) != params.Width {
		t.Errorf("scraped iterations %g, want %d", got, params.Width)
	}
	if got := sumMetric(t, text, "loopsched_dropped_events_total"); got != 0 {
		t.Errorf("%g events dropped", got)
	}
	if !strings.Contains(text, `scheme="`+scheme.Name()+`"`) || !strings.Contains(text, `backend="rpc"`) {
		t.Errorf("run info labels missing:\n%s", text)
	}

	// The aggregator snapshot agrees with the scrape.
	snap := tele.Aggregator().Snapshot()
	if int(snap.ChunksGranted) != rep.Chunks {
		t.Errorf("snapshot chunks granted %d, report says %d", snap.ChunksGranted, rep.Chunks)
	}
	if int(snap.Iterations) != params.Width {
		t.Errorf("snapshot iterations %d, want %d", snap.Iterations, params.Width)
	}

	// Closing the session finishes the Perfetto document: valid JSON,
	// one complete ("X") slice per traced run, carrying its chunks.
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(perfetto.Bytes()) {
		t.Fatalf("perfetto export is not valid JSON:\n%s", perfetto.String())
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				Count int `json:"count"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(perfetto.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	slices, chunks := 0, 0
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			slices, chunks = slices+1, chunks+e.Args.Count
		}
	}
	if chunks != tr.Len() || slices == 0 || slices > chunks {
		t.Errorf("perfetto has %d complete slices of %d chunks, trace has %d chunks", slices, chunks, tr.Len())
	}
}

// TestTelemetryHierarchyReconciles runs the two-level local runtime
// under telemetry and checks the worker-level grant counters match the
// report's chunk total (the root's super-chunk grants must not be
// double-counted).
func TestTelemetryHierarchyReconciles(t *testing.T) {
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:    scheme,
		Workload:  loopsched.Uniform{N: n, C: 1},
		Backend:   loopsched.BackendLocal,
		Workers:   runWorkers(),
		Body:      func(i int) {},
		Hierarchy: &loopsched.Hierarchy{Shards: 2},
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tele.Aggregator().Snapshot()
	if int(snap.ChunksGranted) != rep.Chunks {
		t.Errorf("snapshot chunks granted %d, report says %d", snap.ChunksGranted, rep.Chunks)
	}
	if int(snap.Iterations) != n {
		t.Errorf("snapshot iterations %d, want %d", snap.Iterations, n)
	}
	if int(snap.Steals) != rep.Steals {
		t.Errorf("snapshot steals %d, report says %d", snap.Steals, rep.Steals)
	}
}

// TestTelemetryMPReconciles runs the message-passing backend under
// telemetry: the grants its master publishes, reached over mp.Stream
// instead of a socket, must reconcile exactly.
func TestTelemetryMPReconciles(t *testing.T) {
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	scheme, err := loopsched.LookupScheme("TFSS")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:    scheme,
		Workload:  loopsched.Uniform{N: n, C: 1},
		Backend:   loopsched.BackendMP,
		Workers:   runWorkers(),
		Body:      func(i int) {},
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap := tele.Aggregator().Snapshot()
	if int(snap.ChunksGranted) != rep.Chunks {
		t.Errorf("snapshot chunks granted %d, report says %d", snap.ChunksGranted, rep.Chunks)
	}
	if int(snap.Iterations) != n {
		t.Errorf("snapshot iterations %d, want %d", snap.Iterations, n)
	}
}

// TestTelemetryHistogramsReconcile is the accounting identity behind
// the latency histograms: on every backend, the per-chunk queue-wait
// histogram must count exactly one observation per granted chunk, so
// its scraped _count equals both the report's chunk total and the
// loopsched_chunks_granted_total counter. A histogram that drops slow
// grants (or double-counts prefetches) breaks the identity.
func TestTelemetryHistogramsReconcile(t *testing.T) {
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	const n = 1600
	kernel := func(i int) []byte { return []byte{byte(i)} }

	type result struct {
		chunks  int
		report  *loopsched.Report
		latency bool // backend fills Report.GrantLatency/CompLatency
		ledger  bool // run with Ledger "on", which a Run ignores
	}
	cases := []struct {
		name string
		run  func(t *testing.T, tele *loopsched.Telemetry) result
	}{
		{"local-channel", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, Workers: runWorkers(),
				Body: func(i int) {}, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		{"local-steal", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal,
				Workers: runWorkers(), Body: func(i int) {}, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		{"rpc", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		// CSS(4) grants runs of many chunks — TSS's, DTSS's and TFSS's
		// here are one chunk each — so a view that counts events instead
		// of chunks breaks these two rows' identities.
		{"local-css", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewCSS(4), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, Workers: runWorkers(),
				Body: func(i int) {}, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		{"rpc-css", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewCSS(4), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		// mp is the rpc master and slave loop over a message-passing
		// world, so it measures what rpc measures.
		{"mp", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendMP, Workers: runWorkers(),
				Kernel: kernel, Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, false}
		}},
		// Ledger "on" is accepted and ignored by every Run: the identities
		// hold as on the runs above, and no ledger fetch is recorded.
		{"local-steal-ledger", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal,
				Workers: runWorkers(), Body: func(i int) {}, Ledger: "on",
				Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"rpc-ledger", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Ledger: "on", Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"local-steal-ledger-tfss", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewTFSS(), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal,
				Workers: runWorkers(), Body: func(i int) {}, Ledger: "on",
				Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"rpc-ledger-tfss", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewTFSS(), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Ledger: "on", Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"rpc-ledger-dtss", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewDTSS(), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Ledger: "on", Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"mp-ledger-dtss", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewDTSS(), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendMP, Workers: runWorkers(),
				Kernel: kernel, Ledger: "on", Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"rpc-ledger-dcss", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: loopsched.NewDCSS(3), Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Ledger: "on", Telemetry: tele,
			})
			return result{rep.Chunks, rep, true, true}
		}},
		{"hier-local", func(t *testing.T, tele *loopsched.Telemetry) result {
			rep := runForTelemetry(t, loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, Workers: runWorkers(),
				Body: func(i int) {}, Hierarchy: &loopsched.Hierarchy{Shards: 2},
				Telemetry: tele,
			})
			return result{rep.Chunks, rep, false, false}
		}},
		{"service", func(t *testing.T, tele *loopsched.Telemetry) result {
			s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
				Workers:   []*loopsched.WorkerSpec{{WorkScale: 1}, {WorkScale: 1}},
				Telemetry: tele,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			ctx := context.Background()
			chunks := 0
			for _, tenant := range []string{"alpha", "beta"} {
				j, err := s.Submit(ctx, loopsched.JobSpec{
					Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
					Body: func(i int) {}, Tenant: tenant,
				})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := j.Wait(ctx); err != nil {
					t.Fatal(err)
				}
				chunks += j.ChunksGranted()
			}
			if err := s.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			return result{chunks, nil, false, false}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{
				DebugAddr: "127.0.0.1:0",
			})
			if err != nil {
				t.Fatal(err)
			}
			defer tele.Close()
			claims := &ledgerFetches{}
			tele.Bus().Subscribe(claims)

			res := tc.run(t, tele)
			if res.chunks == 0 {
				t.Fatal("run granted no chunks")
			}
			tele.Flush()
			text := scrapeMetrics(t, tele.DebugAddr())
			if got := sumMetric(t, text, "loopsched_chunk_queue_wait_seconds_count"); int(got) != res.chunks {
				t.Errorf("queue-wait histogram counted %g chunks, run granted %d", got, res.chunks)
			}
			if got := sumMetric(t, text, "loopsched_chunks_granted_total"); int(got) != res.chunks {
				t.Errorf("scraped chunks granted %g, run granted %d", got, res.chunks)
			}
			if res.latency {
				if got := int(res.report.CompLatency.Count); got != res.chunks {
					t.Errorf("Report.CompLatency counted %d chunks, want %d", got, res.chunks)
				}
				if res.report.GrantLatency.Count == 0 {
					t.Error("Report.GrantLatency empty on a latency-measuring backend")
				}
				if res.report.CompLatency.P50 > res.report.CompLatency.P99 {
					t.Errorf("percentiles out of order: p50 %g > p99 %g",
						res.report.CompLatency.P50, res.report.CompLatency.P99)
				}
			}
			if res.ledger {
				// Every grant is a master reply: nothing is claimed
				// one-sided, on the bus or in the scraped counters.
				if got := sumMetric(t, text, "loopsched_ledger_fetchadds_total"); got != 0 {
					t.Errorf("ledger-on run recorded %g fetch-adds, want none", got)
				}
				if got := sumMetric(t, text, "loopsched_ledger_fetch_seconds_count"); got != 0 {
					t.Errorf("ledger fetch histogram counted %g claims, want none", got)
				}
				if got := claims.n.Load(); got != 0 {
					t.Errorf("%d LedgerFetch events on the bus, want none", got)
				}
			}
		})
	}
}

// ledgerFetches counts the bus's LedgerFetch events.
type ledgerFetches struct{ n atomic.Int64 }

func (c *ledgerFetches) BeginRun(telemetry.RunMeta) {}
func (c *ledgerFetches) Close() error               { return nil }
func (c *ledgerFetches) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.LedgerFetch {
		c.n.Add(1)
	}
}

// runForTelemetry runs a spec and fails the test on error or short
// iteration coverage.
func runForTelemetry(t *testing.T, spec loopsched.RunSpec) *loopsched.Report {
	t.Helper()
	rep, err := loopsched.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != spec.Workload.Len() {
		t.Fatalf("iterations %d, want %d", rep.Iterations, spec.Workload.Len())
	}
	return &rep
}

// TestTelemetryWireCountersScrape asserts the bus drop counter and the
// binary-protocol frame/byte/codec counters are first-class Prometheus
// families: an RPC run over the default binary transport must leave
// non-zero frame traffic in both directions on /metrics.
func TestTelemetryWireCountersScrape(t *testing.T) {
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{
		DebugAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	scheme, err := loopsched.LookupScheme("GSS")
	if err != nil {
		t.Fatal(err)
	}
	runForTelemetry(t, loopsched.RunSpec{
		Scheme: scheme, Workload: loopsched.Uniform{N: 1200, C: 1},
		Backend: loopsched.BackendRPC, Workers: runWorkers(),
		Kernel:    func(i int) []byte { return []byte{byte(i)} },
		Pipeline:  true,
		Transport: "binary", // the counters under test are the binary codec's
		Telemetry: tele,
	})
	tele.Flush()
	text := scrapeMetrics(t, tele.DebugAddr())

	if got := sumMetric(t, text, "loopsched_dropped_events_total"); got != 0 {
		t.Errorf("%g events dropped", got)
	}
	// Both directions carried frames, bytes rode along, and the codec
	// spent measurable (well, non-negative) time on them.
	for _, dir := range []string{"sent", "received"} {
		for _, name := range []string{"loopsched_wire_frames_total", "loopsched_wire_bytes_total", "loopsched_wire_batch_items_total"} {
			line := name + `{dir="` + dir + `"}`
			if !strings.Contains(text, line) {
				t.Fatalf("/metrics missing %s:\n%s", line, text)
			}
		}
	}
	if got := sumMetric(t, text, "loopsched_wire_frames_total"); got == 0 {
		t.Error("no wire frames counted for a binary-transport run")
	}
	if got := sumMetric(t, text, "loopsched_wire_bytes_total"); got == 0 {
		t.Error("no wire bytes counted for a binary-transport run")
	}
	if got := sumMetric(t, text, "loopsched_wire_batch_items_total"); got == 0 {
		t.Error("no wire batch items counted for a binary-transport run")
	}
	if got := sumMetric(t, text, "loopsched_wire_codec_seconds_total"); got < 0 {
		t.Errorf("negative codec seconds %g", got)
	}
}

// TestTelemetryTenantPerfettoTracks runs two tenants through the
// shared-fleet scheduler with a Perfetto export attached and checks
// each tenant gets its own named process track in the trace.
func TestTelemetryTenantPerfettoTracks(t *testing.T) {
	var perfetto bytes.Buffer
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{
		Perfetto: &perfetto,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
		Workers:   []*loopsched.WorkerSpec{{WorkScale: 1}, {WorkScale: 1}},
		Telemetry: tele,
	})
	if err != nil {
		t.Fatal(err)
	}
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tenant := range []string{"alpha", "beta"} {
		j, err := s.Submit(ctx, loopsched.JobSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 800, C: 1},
			Body: func(i int) {}, Tenant: tenant,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(perfetto.Bytes(), &doc); err != nil {
		t.Fatalf("perfetto export is not valid JSON: %v", err)
	}
	pids := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.Name != "process_name" {
			continue
		}
		name, _ := e.Args["name"].(string)
		if !strings.HasPrefix(name, "tenant ") {
			continue
		}
		pids[name] = e.Pid
	}
	if len(pids) != 2 || pids["tenant alpha"] == 0 || pids["tenant beta"] == 0 {
		t.Fatalf("tenant tracks = %v, want named tracks for alpha and beta", pids)
	}
	if pids["tenant alpha"] == pids["tenant beta"] {
		t.Fatalf("tenants share pid %d, want distinct tracks", pids["tenant alpha"])
	}
}

// TestTelemetryDisabledIsInert asserts the default path: no Telemetry
// on the spec means no events, no server, and no behaviour change.
func TestTelemetryDisabledIsInert(t *testing.T) {
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:   scheme,
		Workload: loopsched.Uniform{N: 500, C: 1},
		Backend:  loopsched.BackendLocal,
		Workers:  runWorkers(),
		Body:     func(i int) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 500 {
		t.Fatalf("iterations %d", rep.Iterations)
	}
}
