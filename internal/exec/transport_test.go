package exec

import (
	"bytes"
	"io"
	"net"
	"net/rpc"
	"sync"
	"testing"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

func TestTransportNormalize(t *testing.T) {
	t.Setenv(TransportEnv, "")
	if tr, ok := Transport("").Normalize(); !ok || tr != TransportBinary {
		t.Errorf(`Normalize("") = %q, %v; want binary`, tr, ok)
	}
	t.Setenv(TransportEnv, "netrpc")
	if tr, ok := Transport("").Normalize(); !ok || tr != TransportNetRPC {
		t.Errorf(`Normalize("") with env netrpc = %q, %v`, tr, ok)
	}
	t.Setenv(TransportEnv, "carrier-pigeon")
	if tr := DefaultTransport(); tr != TransportBinary {
		t.Errorf("unknown env value resolved to %q, want binary", tr)
	}
	if _, ok := Transport("carrier-pigeon").Normalize(); ok {
		t.Error("unknown transport normalized as valid")
	}
	if tr, ok := TransportNetRPC.Normalize(); !ok || tr != TransportNetRPC {
		t.Errorf("Normalize(netrpc) = %q, %v", tr, ok)
	}
}

// grantCollector records every granted chunk, in publish order.
type grantCollector struct {
	mu     sync.Mutex
	grants []sched.Assignment
}

func (g *grantCollector) BeginRun(telemetry.RunMeta) {}
func (g *grantCollector) Close() error               { return nil }
func (g *grantCollector) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.ChunkGranted || e.Kind == telemetry.ChunkPrefetched {
		n := e.Chunks() // a grant event is a run: its chunks, in order
		g.mu.Lock()
		g.grants = sched.Run{Start: e.Start, Size: e.Size / n, Count: n}.AppendChunks(g.grants)
		g.mu.Unlock()
	}
}

// grantSequence runs one worker to completion over the given transport
// and returns the granted chunk sequence the master published.
func grantSequence(t *testing.T, transport Transport, pipeline bool, s sched.Scheme, n int) []sched.Assignment {
	t.Helper()
	bus := telemetry.NewBus(0)
	col := &grantCollector{}
	bus.Subscribe(col)

	m, addr, stop := serveMaster(t, Config{Scheme: s, Iterations: n, Workers: 1, Telemetry: bus})
	defer stop()

	runWorkers(t, addr, []Worker{{ID: 0, Kernel: intKernel, Transport: transport, Pipeline: pipeline}})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Fatalf("%s: iterations = %d, want %d", transport, rep.Iterations, n)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("%s: result %d corrupted", transport, i)
		}
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	return col.grants
}

// TestTransportsGrantIdenticalSequence is the codec-equivalence
// property: with a deterministic scheme and a single worker, the gob
// protocol (one chunk per call), the binary one (share-bounded batches
// at the default depth) and the binary one pipelined (refills sent
// late, possibly mid-chunk) must produce the exact same chunk sequence
// — same starts, same sizes, same order. Batching and late binding move
// who holds a chunk when, never the sequence; any framing or batching
// bug that loses, reorders or resizes a grant shows up here.
func TestTransportsGrantIdenticalSequence(t *testing.T) {
	const n = 700
	for _, scheme := range []sched.Scheme{sched.TSSScheme{}, sched.GSSScheme{}} {
		gob := grantSequence(t, TransportNetRPC, false, scheme, n)
		if len(gob) == 0 {
			t.Fatalf("%s: no grants observed over netrpc", scheme.Name())
		}
		for _, pipeline := range []bool{false, true} {
			bin := grantSequence(t, TransportBinary, pipeline, scheme, n)
			if len(gob) != len(bin) {
				t.Fatalf("%s: netrpc granted %d chunks, binary (pipeline %v) %d", scheme.Name(), len(gob), pipeline, len(bin))
			}
			for i := range gob {
				if gob[i] != bin[i] {
					t.Fatalf("%s: grant %d differs: netrpc %+v, binary (pipeline %v) %+v",
						scheme.Name(), i, gob[i], pipeline, bin[i])
				}
			}
		}
		// The sequence must also tile [0, n) exactly.
		covered := 0
		next := 0
		for _, g := range gob {
			if g.Start != next {
				t.Fatalf("%s: grant starts at %d, expected %d", scheme.Name(), g.Start, next)
			}
			next = g.Start + g.Size
			covered += g.Size
		}
		if covered != n {
			t.Fatalf("%s: grants cover %d iterations, want %d", scheme.Name(), covered, n)
		}
	}
}

// spanRecorder wraps a master's transport-independent batch handler
// and records, in grant order, every assignment and every span id the
// handler put on the wire-level reply — before the transport adapter
// (gob fallback) has a chance to drop fields it cannot carry.
type spanRecorder struct {
	mu     sync.Mutex
	m      *Master
	grants []sched.Assignment
	spans  []uint64
}

func (r *spanRecorder) batch(args ChunkArgs, credits int, rep *wire.Reply) error {
	err := r.m.nextBatch(args, credits, rep)
	r.mu.Lock()
	r.grants = append(r.grants, rep.Grants...)
	r.spans = append(r.spans, rep.Spans...)
	r.mu.Unlock()
	return err
}

// NextChunk mirrors Master.NextChunk: the one-grant gob adapter over
// the recorded batch handler.
func (r *spanRecorder) NextChunk(args ChunkArgs, reply *ChunkReply) error {
	return batchFunc(r.batch).NextChunk(args, reply)
}

// startRecordedMaster serves a master on a sniffed listener exactly as
// Master.Serve does, but routes both transports through a spanRecorder.
func startRecordedMaster(t *testing.T, n int, withBus bool) (*spanRecorder, *Master, string, func()) {
	t.Helper()
	var bus *telemetry.Bus
	if withBus {
		bus = telemetry.NewBus(0)
	}
	m, err := New(Config{Scheme: sched.TSSScheme{}, Iterations: n, Workers: 1, Telemetry: bus})
	if err != nil {
		t.Fatal(err)
	}
	rec := &spanRecorder{m: m}
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", rec); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serveSniffed(srv, conn, m.bus, 0, rec.batch)
		}
	}()
	stop := func() {
		l.Close()
		if bus != nil {
			bus.Close()
		}
	}
	return rec, m, l.Addr().String(), stop
}

// TestSpanTaggingPreservesGrantSequence is the span-equivalence
// property from the tracing PR: turning telemetry (and with it span
// tagging) on must not change the granted chunk sequence on either
// transport, spans must be entirely absent when telemetry is off
// (the wire package separately proves span-free frames are
// byte-identical to v1), and the gob fallback — whose reply struct
// cannot carry spans at all — must still interoperate on the same
// sniffed listener.
func TestSpanTaggingPreservesGrantSequence(t *testing.T) {
	const n = 500
	for _, transport := range []Transport{TransportBinary, TransportNetRPC} {
		var seqs [2][]sched.Assignment
		var spans [2][]uint64
		for i, withBus := range []bool{false, true} {
			rec, m, addr, stop := startRecordedMaster(t, n, withBus)
			runWorkers(t, addr, []Worker{{ID: 0, Kernel: intKernel, Transport: transport}})
			_, rep, err := m.Wait()
			stop()
			if err != nil {
				t.Fatalf("%s bus=%v: %v", transport, withBus, err)
			}
			if rep.Iterations != n {
				t.Fatalf("%s bus=%v: iterations = %d, want %d", transport, withBus, rep.Iterations, n)
			}
			seqs[i], spans[i] = rec.grants, rec.spans
		}
		if len(seqs[0]) == 0 || len(seqs[0]) != len(seqs[1]) {
			t.Fatalf("%s: granted %d chunks without bus, %d with", transport, len(seqs[0]), len(seqs[1]))
		}
		for i := range seqs[0] {
			if seqs[0][i] != seqs[1][i] {
				t.Fatalf("%s: grant %d differs with telemetry: off %+v, on %+v",
					transport, i, seqs[0][i], seqs[1][i])
			}
		}
		if len(spans[0]) != 0 {
			t.Fatalf("%s: %d spans attached with telemetry off, want 0", transport, len(spans[0]))
		}
		if len(spans[1]) != len(seqs[1]) {
			t.Fatalf("%s: %d spans for %d grants with telemetry on", transport, len(spans[1]), len(seqs[1]))
		}
		for i, g := range seqs[1] {
			if want := telemetry.SpanID(0, g.Start); spans[1][i] != want || spans[1][i] == 0 {
				t.Fatalf("%s: span %d = %#x, want %#x (grant %+v)", transport, i, spans[1][i], want, g)
			}
		}
	}
}

// TestRPCWireCreditWindow runs the batched-grant protocol in anger: the
// credits a request carries are the window of chunks it may take, sized
// by the depth rule over one round trip (0 means 1) and over two and
// eight, narrow and deep asks, with pipelined heterogeneous workers and a
// fixed-chunk scheme whose fine chunks fill deep replies. Every result
// must arrive exactly once, and every chunk's compute time be sampled
// exactly once however many chunks one request reports on.
func TestRPCWireCreditWindow(t *testing.T) {
	const n = 900
	for _, trips := range []float64{0, 2, 8} {
		m, addr, stop := serveMaster(t, Config{Scheme: sched.CSSScheme{K: 5}, Iterations: n, Workers: 3})
		runWorkers(t, addr, []Worker{
			{ID: 0, Kernel: intKernel, Transport: TransportBinary, Pipeline: true, trips: trips},
			{ID: 1, Kernel: intKernel, Transport: TransportBinary, Pipeline: true, WorkScale: 2, trips: trips},
			{ID: 2, Kernel: intKernel, Transport: TransportBinary, trips: trips},
		})
		results, rep, err := m.Wait()
		stop()
		if err != nil {
			t.Fatalf("trips %v: %v", trips, err)
		}
		if rep.Iterations != n {
			t.Fatalf("trips %v: iterations = %d", trips, rep.Iterations)
		}
		if got := int(rep.CompLatency.Count); got != rep.Chunks {
			t.Errorf("trips %v: %d compute-time samples for %d chunks", trips, got, rep.Chunks)
		}
		for i, r := range results {
			if !bytes.Equal(r, intKernel(i)) {
				t.Fatalf("trips %v: result %d corrupted", trips, i)
			}
		}
	}
}

// TestMixedTransportsOneListener: the master's sniffer serves a gob
// worker and two binary workers over the same listener in the same run.
// Two more binary connections send frames no master answers — the
// codec's FetchAdd claim, and a raw request frame that sets the
// reserved flag bit 2 and carries a forged result for worker 1 — and
// each must be dropped on its own: the claim gets no
// chunk, the forged result is not filed, and the fleet still finishes
// with every iteration delivered exactly once, FSS's nominal steps each
// granted once. TestLedgerMixedTransportsOneListener runs the same
// fleet over more schemes.
func TestMixedTransportsOneListener(t *testing.T) {
	const n = 900
	m, addr, stop := startMaster(t, sched.FSSScheme{}, n, 3)
	defer stop()

	unanswerable := func(what string, send func(conn net.Conn) error) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(10 * time.Second)) // fail, not hang, if it is answered or kept open
		if err := send(conn); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("%s: read %v, want the master to close the connection (EOF)", what, err)
		}
	}
	unanswerable("FetchAdd frame", func(conn net.Conn) error {
		c, err := wire.NewClient(conn)
		if err != nil {
			return err
		}
		return c.WriteFetchAdd(1)
	})
	unanswerable("no-reply frame", func(conn net.Conn) error {
		// A request for worker 1 with flag bit 2 set and one forged
		// 6-byte result at index 0: type, worker, ACP, two zero
		// float64s, flags, credits, one record.
		body := append([]byte{0x01, 1, 0}, make([]byte, 16)...)
		body = append(body, 0x04, 0, 1, 0, 6)
		body = append(body, "forged"...)
		frame := append([]byte{wire.Magic, 'L', 'S', wire.Version, byte(len(body))}, body...)
		_, err := conn.Write(frame)
		return err
	})

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
		t.Fatalf("iterations = %d", rep.Iterations)
	}
	if want := nominalSteps(t, sched.FSSScheme{}, n, 3); rep.Chunks != want {
		t.Fatalf("chunks = %d, want FSS's %d steps granted exactly once", rep.Chunks, want)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
	}
}
