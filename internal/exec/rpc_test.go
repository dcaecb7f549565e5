package exec

import (
	"bytes"
	"encoding/binary"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// startMaster spins up a master on an ephemeral localhost TCP port.
func startMaster(t *testing.T, s sched.Scheme, iterations, workers int) (*Master, string, func()) {
	t.Helper()
	return serveMaster(t, Config{Scheme: s, Iterations: iterations, Workers: workers})
}

// serveMaster is startMaster for the master cfg describes.
func serveMaster(t *testing.T, cfg Config) (*Master, string, func()) {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
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

func intKernel(i int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i*i+1))
	return buf[:]
}

func runWorkers(t *testing.T, addr string, workers []Worker) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, len(workers))
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w Worker) {
			defer wg.Done()
			errs[i] = w.Run(addr)
		}(i, w)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// TestRPCEndToEnd runs a real TCP master–worker loop and checks every
// result arrived intact.
func TestRPCEndToEnd(t *testing.T) {
	const n = 500
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 3)
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel},
		{ID: 1, Kernel: intKernel},
		{ID: 2, Kernel: intKernel, WorkScale: 2},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n || rep.Chunks == 0 {
		t.Errorf("report: %+v", rep)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted: %v", i, r)
		}
	}
}

// TestRPCDistributed runs DTSS over TCP with heterogeneous workers
// reporting real ACPs.
func TestRPCDistributed(t *testing.T) {
	const n = 800
	m, addr, stop := startMaster(t, sched.DTSSScheme{}, n, 2)
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, VirtualPower: 3},
		{ID: 1, Kernel: intKernel, VirtualPower: 1, WorkScale: 3},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
	}
}

// TestRPCPerWorkerTimes: the master's report carries a per-PE
// T_com/T_wait/T_comp breakdown derived from worker-reported
// computation times. Both workers must compute something for that, and
// on two cores a 4 ms loop can be over before the second one is
// granted a chunk, so iteration 0 holds its worker until the other has
// started one (starveGate).
func TestRPCPerWorkerTimes(t *testing.T) {
	const n = 400
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 2)
	defer stop()
	g := newStarveGate()
	slowKernel := func(i int) []byte {
		g.visit(i)
		// Enough work per iteration to register on the clock.
		h := uint64(i)
		for k := 0; k < 20000; k++ {
			h = h*0x9e3779b97f4a7c15 + 1
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], h)
		return buf[:]
	}
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: slowKernel},
		{ID: 1, Kernel: slowKernel},
	})
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	g.check(t)
	if len(rep.PerWorker) != 2 {
		t.Fatalf("%d worker rows", len(rep.PerWorker))
	}
	for i, tt := range rep.PerWorker {
		if tt.Comp <= 0 {
			t.Errorf("worker %d: no computation time recorded (%+v)", i, tt)
		}
		if tt.Total() > rep.Tp*1.05+1e-3 {
			t.Errorf("worker %d: total %.4f exceeds Tp %.4f", i, tt.Total(), rep.Tp)
		}
	}
}

// TestReportMissesNoDeliveredChunk is the regression test for a lost
// sample: the request that delivers the run's last result must have its
// timing booked before it releases Wait, or the report is one chunk's
// compute time short — CompLatency.Count == Chunks − 1, and a worker
// that computed only that chunk reads Comp == 0. Short runs back to back
// make the window easy to hit, and a subscribed telemetry bus makes it
// wider (the booking publishes two events first): at the parent this
// failed within the 300 in 4 of 10 tries on two cores, 5 of 5 under
// -race.
func TestReportMissesNoDeliveredChunk(t *testing.T) {
	const n, p, runs = 8, 2, 300
	for run := 0; run < runs; run++ {
		bus := telemetry.NewBus(0)
		bus.Subscribe(&eventLog{})
		m, addr, stop := serveMaster(t, Config{Scheme: sched.SelfScheduling, Iterations: n, Workers: p, Telemetry: bus})
		var delivered [p]atomic.Bool
		workers := make([]Worker, p)
		for w := range workers {
			w := w
			workers[w] = Worker{ID: w, Transport: TransportBinary, Kernel: func(i int) []byte {
				delivered[w].Store(true)
				h := uint64(i)
				for k := 0; k < 200; k++ { // long enough to register on the clock
					h = h*0x9e3779b97f4a7c15 + 1
				}
				return intKernel(int(h % 1000))
			}}
		}
		// Wait is already blocked on the run when the last result lands,
		// as it is under loopsched.Run.
		joined := make(chan struct{})
		go func() {
			defer close(joined)
			runWorkers(t, addr, workers)
		}()
		_, rep, err := m.Wait()
		<-joined
		stop()
		bus.Close()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Chunks != n || rep.CompLatency.Count != uint64(rep.Chunks) {
			t.Fatalf("run %d: %d chunks granted, %d compute-time samples in the report", run, rep.Chunks, rep.CompLatency.Count)
		}
		for w := range workers {
			if delivered[w].Load() && rep.PerWorker[w].Comp <= 0 {
				t.Fatalf("run %d: worker %d delivered results but the report books it no compute time: %+v", run, w, rep.PerWorker[w])
			}
		}
	}
}

// TestRPCSchemesAgree: two different schemes must produce bit-identical
// result sets — scheduling may reorder work but never change it.
func TestRPCSchemesAgree(t *testing.T) {
	const n = 300
	run := func(s sched.Scheme) [][]byte {
		m, addr, stop := startMaster(t, s, n, 2)
		defer stop()
		runWorkers(t, addr, []Worker{
			{ID: 0, Kernel: intKernel},
			{ID: 1, Kernel: intKernel},
		})
		results, _, err := m.Wait()
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a := run(sched.FSSScheme{})
	b := run(sched.NewDFISS(0))
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			t.Fatalf("schemes disagree at iteration %d", i)
		}
	}
}

// TestRPCLoadedWorker: a LoadProbe shifts work away from the loaded
// machine under a distributed scheme.
func TestRPCLoadedWorker(t *testing.T) {
	const n = 1000
	m, addr, stop := startMaster(t, sched.NewDFSS(), n, 2)
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, VirtualPower: 2, LoadProbe: func() int { return 3 }},
		{ID: 1, Kernel: intKernel, VirtualPower: 2},
	})
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
}

func TestMasterValidation(t *testing.T) {
	if _, err := NewMaster(sched.TSSScheme{}, 10, 0); err == nil {
		t.Error("zero workers accepted")
	}
	if _, err := NewMaster(sched.TSSScheme{}, -1, 2); err == nil {
		t.Error("negative iterations accepted")
	}
}

func TestWorkerValidation(t *testing.T) {
	w := Worker{}
	if err := w.Run("127.0.0.1:1"); err == nil {
		t.Error("kernel-less worker accepted")
	}
	w.Kernel = intKernel
	if err := w.Run("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestRPCFailWorkerRequeues: a worker that takes a chunk and dies has
// its chunk re-issued to the survivors; the loop still completes with
// every result present.
func TestRPCFailWorkerRequeues(t *testing.T) {
	const n = 400
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 3)
	defer stop()

	// Worker 2 grabs one chunk and vanishes.
	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 2}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Stop || reply.Assign.Size == 0 {
		t.Fatalf("dead worker got no chunk: %+v", reply)
	}
	out := m.Outstanding()
	if as, ok := out[2]; !ok || len(as) != 1 || as[0] != reply.Assign {
		t.Fatalf("outstanding ledger wrong: %v", out)
	}
	if err := m.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	if len(m.Outstanding()) != 0 {
		t.Fatalf("failed worker still outstanding: %v", m.Outstanding())
	}
	// FailWorker is idempotent and validates ids.
	if err := m.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	if err := m.FailWorker(9); err == nil {
		t.Fatal("bad worker id accepted")
	}

	// The survivors finish the whole loop, including the requeued chunk.
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel},
		{ID: 1, Kernel: intKernel},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d missing/corrupted after requeue", i)
		}
	}
}

// TestRPCAllWorkersFail: when every worker dies the run terminates
// (rather than hanging) and Wait reports the missing results.
func TestRPCAllWorkersFail(t *testing.T) {
	m, _, stop := startMaster(t, sched.TSSScheme{}, 100, 2)
	defer stop()
	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0}, &reply); err != nil {
		t.Fatal(err)
	}
	if err := m.FailWorker(0); err != nil {
		t.Fatal(err)
	}
	if err := m.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.Wait() // must not hang
	if err == nil {
		t.Error("missing results not reported")
	}
}

// TestRPCFailDuringGather: a worker dying before reporting its ACP
// must not stall the distributed master's initial barrier.
func TestRPCFailDuringGather(t *testing.T) {
	const n = 200
	m, addr, stop := startMaster(t, sched.DTSSScheme{}, n, 3)
	defer stop()
	if err := m.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, VirtualPower: 2},
		{ID: 1, Kernel: intKernel, VirtualPower: 1},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
	}
}

// TestRPCWatchTimeouts: the heartbeat watcher automatically fails a
// silent worker, its chunk is requeued, and the survivors finish.
func TestRPCWatchTimeouts(t *testing.T) {
	const n = 300
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 3)
	defer stop()

	// Worker 2 takes a chunk and goes silent.
	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 2}, &reply); err != nil {
		t.Fatal(err)
	}
	stopWatch := make(chan struct{})
	defer close(stopWatch)
	go m.WatchTimeouts(5*time.Millisecond, 30*time.Millisecond, stopWatch)

	// The survivors run immediately: they drain the policy, then park
	// inside NextChunk (parked workers are immune to the watcher) and
	// absorb worker 2's chunk once the heartbeat deadline requeues it.
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel},
		{ID: 1, Kernel: intKernel},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d missing after timeout recovery", i)
		}
	}
	if lc, err := m.LastContact(0); err != nil || lc.IsZero() {
		t.Errorf("LastContact: %v %v", lc, err)
	}
	if _, err := m.LastContact(9); err == nil {
		t.Error("bad worker id accepted by LastContact")
	}
}

// TestRPCStoppedWorkerNotFailed: gracefully stopped workers are
// ignored by FailWorker, so a slow watcher cannot double-count them.
func TestRPCStoppedWorkerNotFailed(t *testing.T) {
	m, addr, stop := startMaster(t, sched.TSSScheme{}, 50, 2)
	defer stop()
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel},
		{ID: 1, Kernel: intKernel},
	})
	if _, _, err := m.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := m.FailWorker(0); err != nil {
		t.Fatalf("FailWorker after graceful stop: %v", err)
	}
}

// waitParked blocks until n workers are parked in m, woken by the
// master's park note rather than by polling.
func waitParked(t *testing.T, m *Master, n int) {
	t.Helper()
	timeout := time.After(5 * time.Second)
	for m.Parked() != n {
		select {
		case <-m.parkNote:
		case <-timeout:
			t.Fatalf("%d workers parked after 5s, want %d", m.Parked(), n)
		}
	}
}

// countingKernel returns a kernel that counts invocations per index.
func countingKernel(counts []int32) Kernel {
	return func(i int) []byte {
		atomic.AddInt32(&counts[i], 1)
		return intKernel(i)
	}
}

// TestRPCLateFailureRequeued is the lost-iterations race regression:
// a worker that drains the policy is parked inside NextChunk rather
// than stopped while another worker's chunk is still in flight, so a
// late FailWorker finds a live worker to absorb the requeued chunk
// instead of "completing" the run with silently missing results.
func TestRPCLateFailureRequeued(t *testing.T) {
	const n = 300
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 2)
	defer stop()

	// Worker 1 grabs the first chunk and goes silent.
	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	if reply.Stop || reply.Assign.Size == 0 {
		t.Fatalf("worker 1 got no chunk: %+v", reply)
	}

	// Worker 0 computes everything else, then must wait — not exit.
	errc := make(chan error, 1)
	go func() { errc <- (Worker{ID: 0, Kernel: intKernel}).Run(addr) }()
	waitParked(t, m, 1)

	// Only now does worker 1 die; its chunk must reach worker 0.
	if err := m.FailWorker(1); err != nil {
		t.Fatal(err)
	}
	if err := <-errc; err != nil {
		t.Fatalf("worker 0: %v", err)
	}
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatalf("run lost iterations: %v", err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d missing after late failure", i)
		}
	}
}

// TestRPCResurrectedWorkerStopped is the resurrected-worker race
// regression: a worker declared dead that was merely slow gets Stop on
// its next call (no more chunks, no double counting), and the results
// it piggy-backs are banked so its requeued chunk is not recomputed.
func TestRPCResurrectedWorkerStopped(t *testing.T) {
	const n = 200
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 2)
	defer stop()

	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 1}, &reply); err != nil {
		t.Fatal(err)
	}
	a := reply.Assign
	if err := m.FailWorker(1); err != nil {
		t.Fatal(err)
	}

	// The "dead" worker reports back with its chunk's results.
	res := make([]ChunkResult, 0, a.Size)
	for i := a.Start; i < a.End(); i++ {
		res = append(res, ChunkResult{Index: i, Data: intKernel(i)})
	}
	var again ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 1, Results: res}, &again); err != nil {
		t.Fatal(err)
	}
	if !again.Stop {
		t.Fatalf("resurrected worker handed more work: %+v", again)
	}

	// The survivor must not recompute the delivered chunk.
	counts := make([]int32, n)
	runWorkers(t, addr, []Worker{{ID: 0, Kernel: countingKernel(counts)}})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
		c := atomic.LoadInt32(&counts[i])
		if i >= a.Start && i < a.End() {
			if c != 0 {
				t.Errorf("delivered iteration %d recomputed %d times", i, c)
			}
		} else if c != 1 {
			t.Errorf("iteration %d computed %d times, want 1", i, c)
		}
	}
}

// TestRPCPipelinedWorkers: the double-buffered protocol computes every
// iteration exactly once and loses nothing.
func TestRPCPipelinedWorkers(t *testing.T) {
	const n = 500
	m, addr, stop := startMaster(t, sched.TSSScheme{}, n, 3)
	defer stop()

	counts := make([]int32, n)
	k := countingKernel(counts)
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: k, Pipeline: true},
		{ID: 1, Kernel: k, Pipeline: true},
		{ID: 2, Kernel: k, Pipeline: true},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n || rep.Chunks == 0 {
		t.Errorf("report: %+v", rep)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted: %v", i, r)
		}
		if c := atomic.LoadInt32(&counts[i]); c != 1 {
			t.Errorf("iteration %d computed %d times, want 1", i, c)
		}
	}
}

// TestRPCPipelinedDistributed: pipelined workers pass the distributed
// gather barrier (the first, synchronous request joins it) and the
// run balances with real ACPs.
func TestRPCPipelinedDistributed(t *testing.T) {
	const n = 600
	m, addr, stop := startMaster(t, sched.DTSSScheme{}, n, 2)
	defer stop()

	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: intKernel, VirtualPower: 3, Pipeline: true},
		{ID: 1, Kernel: intKernel, VirtualPower: 1, WorkScale: 3, Pipeline: true},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d corrupted", i)
		}
	}
}

// TestRPCPipelinedFailWorker: a pipelined worker dies holding three
// outstanding chunks (computing + two prefetched); all are requeued, and
// the survivors compute everything exactly once.
func TestRPCPipelinedFailWorker(t *testing.T) {
	const n = 400
	m, addr, stop := serveMaster(t, Config{Scheme: sched.FSSScheme{}, Iterations: n, Workers: 3})
	defer stop()

	// Worker 2 takes a chunk and prefetches two more, one per call…
	var r [3]ChunkReply
	for i := range r {
		if err := m.NextChunk(ChunkArgs{Worker: 2, Prefetch: i > 0}, &r[i]); err != nil {
			t.Fatal(err)
		}
		if r[i].Stop || r[i].Assign.Size == 0 {
			t.Fatalf("call %d: no chunk: %+v", i, r[i])
		}
	}
	out := m.Outstanding()
	if len(out[2]) != 3 {
		t.Fatalf("outstanding ledger: %v", out)
	}
	// …and dies. Every chunk must be requeued.
	if err := m.FailWorker(2); err != nil {
		t.Fatal(err)
	}
	if len(m.Outstanding()) != 0 {
		t.Fatalf("failed worker still outstanding: %v", m.Outstanding())
	}

	counts := make([]int32, n)
	k := countingKernel(counts)
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: k, Pipeline: true},
		{ID: 1, Kernel: k, Pipeline: true},
	})
	results, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations = %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, intKernel(i)) {
			t.Fatalf("result %d missing/corrupted after requeue", i)
		}
		if c := atomic.LoadInt32(&counts[i]); c != 1 {
			t.Errorf("iteration %d computed %d times, want 1", i, c)
		}
	}
}

// scriptedClock makes m read its time from the returned counter, in
// nanoseconds, instead of the wall clock.
func scriptedClock(m *Master) *atomic.Int64 {
	var clock atomic.Int64
	m.clock = func() time.Time { return time.Unix(0, clock.Load()) }
	return &clock
}

// TestRPCCommGapZeroComp: the T_comm gap is charged even when the
// previous chunk's measured computation time rounds to zero (the old
// CompSeconds > 0 guard silently dropped it).
func TestRPCCommGapZeroComp(t *testing.T) {
	const n = 4
	const gap = 20 * time.Millisecond
	m, _, stop := startMaster(t, sched.CSSScheme{K: 2}, n, 1)
	defer stop()
	clock := scriptedClock(m)

	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0}, &reply); err != nil {
		t.Fatal(err)
	}
	clock.Add(int64(gap))
	deliver := func(a sched.Assignment) []ChunkResult {
		res := make([]ChunkResult, 0, a.Size)
		for i := a.Start; i < a.End(); i++ {
			res = append(res, ChunkResult{Index: i, Data: intKernel(i)})
		}
		return res
	}
	// Zero-duration chunk: CompSeconds stays 0.
	var r2 ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0, Results: deliver(reply.Assign)}, &r2); err != nil {
		t.Fatal(err)
	}
	var r3 ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0, Results: deliver(r2.Assign)}, &r3); err != nil {
		t.Fatal(err)
	}
	if !r3.Stop {
		t.Fatalf("run not complete: %+v", r3)
	}
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.PerWorker[0].Comm; got != gap.Seconds() {
		t.Errorf("Comm = %gs, want exactly the %gs gap (zero-comp gap dropped)", got, gap.Seconds())
	}
}

// TestRPCCommHonestUnderLateRequests: a refill sent in the middle of a
// chunk reports the kernel seconds spent so far, the chunk in hand
// included, so the master does not book that chunk's kernel time as
// communication. Two chunks of 256 iterations on one pipelined worker:
// the share bound keeps the first reply to one chunk, so the second is
// fetched by a prefetch sent a few iterations before the first ends.
// All of the kernel time must come back as Comp, and Comm — a few round
// trips — stay far below one chunk's worth. Time is scripted, not read
// off the wall: worker and master share one clock, which every kernel
// iteration advances by cost and every master reading by tick, so a
// round trip takes two ticks. The one freedom left is how a prefetch's
// two ticks interleave with the iterations still running behind it,
// which moves Comp and Comm by a few ticks at most
// (TestWindowLoopAgainstScriptedLink pins the worker's side exactly).
func TestRPCCommHonestUnderLateRequests(t *testing.T) {
	const n, k = 512, 256
	const cost, tick = 20 * time.Microsecond, 20 * time.Microsecond
	var clock atomic.Int64 // scripted nanoseconds
	bus := telemetry.NewBus(0)
	log := &eventLog{}
	bus.Subscribe(log)
	m, err := New(Config{Scheme: sched.CSSScheme{K: k}, Iterations: n, Workers: 1, Telemetry: bus})
	if err != nil {
		t.Fatal(err)
	}
	m.clock = func() time.Time { return time.Unix(0, clock.Add(int64(tick))) }
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := m.Serve(l); err != nil {
		t.Fatal(err)
	}

	kernel := func(i int) []byte {
		clock.Add(int64(cost))
		return intKernel(i)
	}
	runWorkers(t, l.Addr().String(), []Worker{{ID: 0, Kernel: kernel, Pipeline: true,
		clock: func() time.Time { return time.Unix(0, clock.Load()) }}})
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	late := false
	for _, e := range log.drain() {
		late = late || e.Kind == telemetry.ChunkPrefetched && e.Start == k
	}
	if !late {
		t.Fatal("the second chunk was not fetched by a prefetch: the run did not exercise a mid-chunk request")
	}
	total, chunk := (n * cost).Seconds(), (k * cost).Seconds()
	comp, comm := rep.PerWorker[0].Comp, rep.PerWorker[0].Comm
	if comp < 0.999*total || comp > 1.05*total || comm > 0.1*chunk {
		t.Errorf("Comp = %.6fs of %.6fs kernel time, Comm = %.6fs with chunks of %.6fs: kernel time booked as communication",
			comp, total, comm, chunk)
	}
}

// TestRPCLastReplyNotStampedOnError: an errored NextChunk produces no
// reply the worker can see, so it must not reset the communication-gap
// clock.
func TestRPCLastReplyNotStampedOnError(t *testing.T) {
	const n = 2
	const gap = 30 * time.Millisecond
	m, _, stop := startMaster(t, sched.CSSScheme{K: 2}, n, 1)
	defer stop()
	clock := scriptedClock(m)

	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0}, &reply); err != nil {
		t.Fatal(err)
	}
	clock.Add(int64(gap))
	// A malformed call fails — and must not be counted as a reply.
	var bad ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0, Results: []ChunkResult{{Index: 99}}}, &bad); err == nil {
		t.Fatal("out-of-range result index accepted")
	}
	res := []ChunkResult{
		{Index: 0, Data: intKernel(0)},
		{Index: 1, Data: intKernel(1)},
	}
	var final ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 0, Results: res}, &final); err != nil {
		t.Fatal(err)
	}
	if !final.Stop {
		t.Fatalf("run not complete: %+v", final)
	}
	_, rep, err := m.Wait()
	if err != nil {
		t.Fatal(err)
	}
	// The gap spans from the first (successful) reply, not from the
	// errored call, which came at the same instant as the final one.
	if got := rep.PerWorker[0].Comm; got != gap.Seconds() {
		t.Errorf("Comm = %gs, want exactly the %gs gap (gap clock reset by errored call)", got, gap.Seconds())
	}
}

// TestRPCBadWorkerID: the master rejects out-of-range worker ids.
func TestRPCBadWorkerID(t *testing.T) {
	m, _, stop := startMaster(t, sched.TSSScheme{}, 10, 1)
	defer stop()
	var reply ChunkReply
	if err := m.NextChunk(ChunkArgs{Worker: 5}, &reply); err == nil {
		t.Error("bad worker id accepted")
	}
	if err := m.NextChunk(ChunkArgs{Worker: 0, Results: []ChunkResult{{Index: 99}}}, &reply); err == nil {
		t.Error("out-of-range result index accepted")
	}
}

// TestDepositRuns: a run deposits its whole range exactly once — the
// fresh count is the iterations newly flipped, whatever part of the range
// an earlier record already delivered — and a range that is out of
// bounds, negative or a run carrying data is refused before any of its
// flags flips.
func TestDepositRuns(t *testing.T) {
	m, err := NewMaster(sched.TSSScheme{}, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		results []ChunkResult
		fresh   int
		bad     bool
	}{
		{results: []ChunkResult{{Index: 2, Count: 5}}, fresh: 5},
		{results: []ChunkResult{{Index: 0, Count: 3}}, fresh: 2},
		{results: []ChunkResult{{Index: 7, Data: []byte{7}}, {Index: 7, Count: 1}}, fresh: 1},
		{results: []ChunkResult{{Index: 8, Count: 3}}, bad: true},
		{results: []ChunkResult{{Index: 8, Count: -1}}, bad: true},
		{results: []ChunkResult{{Index: -1, Count: 2}}, bad: true},
		{results: []ChunkResult{{Index: 8, Count: 2, Data: []byte{1}}}, bad: true},
		{results: []ChunkResult{{Index: 8, Count: 2}}, fresh: 2},
	} {
		fresh, err := m.deposit(c.results)
		if (err != nil) != c.bad || fresh != c.fresh {
			t.Fatalf("deposit %+v: fresh %d, err %v; want fresh %d, refused %v", c.results, fresh, err, c.fresh, c.bad)
		}
	}
	if !m.b.Delivered(sched.Assignment{Start: 0, Size: 10}) {
		t.Error("an iteration was never delivered")
	}
	if m.results[7] == nil || m.results[2] != nil {
		t.Errorf("results %v: the data record must win iteration 7, runs store nothing", m.results)
	}
}

// TestDepositSpansLedgerWords: runs cross the 64-iteration words of the
// result ledger, and every iteration still counts once.
func TestDepositSpansLedgerWords(t *testing.T) {
	m, err := NewMaster(sched.TSSScheme{}, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ index, count, fresh int }{{60, 70, 70}, {0, 200, 130}, {128, 1, 0}, {199, 1, 0}} {
		if fresh, err := m.deposit([]ChunkResult{{Index: c.index, Count: c.count}}); err != nil || fresh != c.fresh {
			t.Fatalf("run [%d, +%d): fresh %d, err %v; want fresh %d", c.index, c.count, fresh, err, c.fresh)
		}
	}
	if !m.b.Delivered(sched.Assignment{Start: 0, Size: 200}) || m.b.Delivered(sched.Assignment{Start: 199, Size: 2}) {
		t.Error("want [0, 200) delivered and nothing past it")
	}
}

// TestRPCEmptyResultsTravelAsRuns runs a loop whose kernel returns no
// bytes over both codecs, serial and pipelined: every iteration runs
// exactly once, and the master ends with every result delivered, nil.
func TestRPCEmptyResultsTravelAsRuns(t *testing.T) {
	const n = 700
	for _, transport := range []Transport{TransportBinary, TransportNetRPC} {
		for _, pipeline := range []bool{false, true} {
			m, addr, stop := startMaster(t, sched.FSSScheme{}, n, 2)
			counts := make([]int32, n)
			kernel := func(i int) []byte {
				atomic.AddInt32(&counts[i], 1)
				return nil
			}
			runWorkers(t, addr, []Worker{
				{ID: 0, Kernel: kernel, Transport: transport, Pipeline: pipeline},
				{ID: 1, Kernel: kernel, Transport: transport, Pipeline: pipeline, WorkScale: 2},
			})
			results, rep, err := m.Wait()
			stop()
			if err != nil {
				t.Fatalf("%s pipeline=%v: %v", transport, pipeline, err)
			}
			for i, r := range results {
				if c := atomic.LoadInt32(&counts[i]); r != nil || (c != 1 && c != 2) {
					t.Fatalf("%s pipeline=%v: iteration %d ran %d times, result %v", transport, pipeline, i, c, r)
				}
			}
			if rep.Iterations != n || rep.CompLatency.Count != uint64(rep.Chunks) {
				t.Errorf("%s pipeline=%v: report %+v", transport, pipeline, rep)
			}
		}
	}
}

// TestFailWorkerRequeuesARunAtItsBoundaries: a worker holds one run of
// 256 CSS(4) chunks and has delivered a prefix that ends mid-chunk when
// it is declared dead. A survivor is re-granted exactly the chunks not
// delivered in full, at their original boundaries — the cut chunk first
// — before any fresh chunk: as one run when its room allows, and one
// chunk at a time over gob, whose room is 1.
func TestFailWorkerRequeuesARunAtItsBoundaries(t *testing.T) {
	const k, held, cut = 4, 256, 100*4 + 2 // the prefix ends 2 iterations into chunk 100
	for _, gob := range []bool{false, true} {
		m, err := New(Config{Scheme: sched.CSSScheme{K: k}, Iterations: 1 << 16, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		var rep wire.Reply
		if err := m.nextBatch(ChunkArgs{Worker: 0, Prefetch: true}, held, &rep); err != nil {
			t.Fatal(err)
		}
		run := sched.Run{Start: 0, Size: k, Count: held}
		if len(rep.Grants) != 1 || rep.Run(0) != run {
			t.Fatalf("worker 0 was granted %v %v, want one run %+v", rep.Grants, rep.Counts, run)
		}
		rep.Reset()
		delivery := ChunkArgs{Worker: 0, Prefetch: true, Results: []ChunkResult{{Index: 0, Count: cut}}}
		if err := m.nextBatch(delivery, 0, &rep); err != nil {
			t.Fatal(err)
		}
		if out := m.Outstanding()[0]; len(out) != held-100 || out[0] != (sched.Assignment{Start: 400, Size: k}) {
			t.Fatalf("after the delivery worker 0 holds %d chunks from %v, want %d from chunk 100", len(out), out[:1], held-100)
		}
		if err := m.FailWorker(0); err != nil {
			t.Fatal(err)
		}
		var want []sched.Assignment
		for c := 100; c < held; c++ {
			want = append(want, sched.Assignment{Start: c * k, Size: k})
		}
		var got []sched.Assignment
		if gob {
			for range want {
				var reply ChunkReply
				if err := m.NextChunk(ChunkArgs{Worker: 1, Prefetch: true}, &reply); err != nil {
					t.Fatal(err)
				}
				got = append(got, reply.Assign)
			}
		} else {
			rep.Reset()
			if err := m.nextBatch(ChunkArgs{Worker: 1}, len(want), &rep); err != nil {
				t.Fatal(err)
			}
			if len(rep.Grants) != 1 {
				t.Errorf("the survivor's re-grant is %d grants %v %v, want one run", len(rep.Grants), rep.Grants, rep.Counts)
			}
			got = replyChunks(&rep)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("gob %v: the survivor was re-granted %v, want chunks 100 to 255 of %d", gob, got, k)
		}
		var next ChunkReply
		if err := m.NextChunk(ChunkArgs{Worker: 1, Prefetch: true}, &next); err != nil {
			t.Fatal(err)
		}
		if fresh := (sched.Assignment{Start: held * k, Size: k}); next.Assign != fresh {
			t.Fatalf("gob %v: after the requeue the survivor drew %+v, want the fresh %+v", gob, next.Assign, fresh)
		}
	}
}
