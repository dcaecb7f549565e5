package mp_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched"
	"loopsched/internal/telemetry"
)

// The master/slave program these tests drive is not this package's any
// more: it is exec.Master and the one slave loop, reached through
// mp.Stream by loopsched.RunMPMasterContext / RunMPWorker. They stay
// here because what they pin is the transport's side of that bargain —
// the same loop, intact, over the in-process world and the TCP star.

func squareKernel(i int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i*i+13))
	return buf[:]
}

func acpModel() loopsched.ACPModel { return loopsched.ACPModel{Scale: 10} }

func scheme(t *testing.T, name string) loopsched.Scheme {
	t.Helper()
	s, err := loopsched.LookupScheme(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// tcpWorld is rank 0 of a TCP star and a dialler for its slave ranks.
func tcpWorld(t *testing.T, workers int) (master loopsched.Comm, dial func(rank int) loopsched.Comm) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err = loopsched.ListenTCP(ln, workers+1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { master.Close() })
	return master, func(rank int) loopsched.Comm {
		c, err := loopsched.DialTCP(ln.Addr().String(), rank, workers+1)
		if err != nil {
			t.Fatalf("dial %d: %v", rank, err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
}

// localWorld is an in-process world's rank 0 and its slave ranks.
func localWorld(t *testing.T, workers int) (master loopsched.Comm, slave func(rank int) loopsched.Comm) {
	t.Helper()
	world, err := loopsched.NewWorld(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	return world[0], func(rank int) loopsched.Comm { return world[rank] }
}

// runLoop executes the master/slave program over a world and returns the
// results once the master and every slave are back.
func runLoop(t *testing.T, master loopsched.Comm, slave func(int) loopsched.Comm, s loopsched.Scheme, iterations, workers int, opts func(rank int) loopsched.MPWorkerOptions) ([][]byte, loopsched.Report) {
	t.Helper()
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := loopsched.RunMPWorker(slave(r), opts(r)); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}()
	}
	results, rep, err := loopsched.RunMPMasterContext(context.Background(), master, s, iterations, loopsched.MPMasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != iterations || rep.Chunks < 1 && iterations > 0 {
		t.Errorf("report %+v", rep)
	}
	return results, rep
}

func checkSquares(t *testing.T, what string, results [][]byte) {
	t.Helper()
	for i, r := range results {
		if !bytes.Equal(r, squareKernel(i)) {
			t.Fatalf("%s: result %d corrupted", what, i)
		}
	}
}

func TestLoopInProcess(t *testing.T) {
	for _, name := range []string{"SS", "TSS", "FSS", "TFSS", "DTSS", "DFISS"} {
		master, slave := localWorld(t, 3)
		results, _ := runLoop(t, master, slave, scheme(t, name), 700, 3, func(r int) loopsched.MPWorkerOptions {
			o := loopsched.MPWorkerOptions{Kernel: squareKernel, ACP: acpModel(), VirtualPower: 2}
			if r == 3 {
				o.VirtualPower, o.WorkScale = 1, 2
			}
			return o
		})
		checkSquares(t, name, results)
	}
}

func TestLoopOverTCP(t *testing.T) {
	master, dial := tcpWorld(t, 3)
	results, _ := runLoop(t, master, dial, scheme(t, "DTSS"), 300, 3, func(r int) loopsched.MPWorkerOptions {
		return loopsched.MPWorkerOptions{Kernel: squareKernel, VirtualPower: float64(r), ACP: acpModel()}
	})
	checkSquares(t, "TCP", results)
}

func TestLoopValidation(t *testing.T) {
	world, _ := loopsched.NewWorld(2)
	tss := scheme(t, "TSS")
	if _, _, err := loopsched.RunMPMasterContext(context.Background(), world[1], tss, 10, loopsched.MPMasterOptions{}); err == nil {
		t.Error("non-zero-rank master accepted")
	}
	if err := loopsched.RunMPWorker(world[0], loopsched.MPWorkerOptions{Kernel: squareKernel}); err == nil {
		t.Error("rank-0 worker accepted")
	}
	if err := loopsched.RunMPWorker(world[1], loopsched.MPWorkerOptions{}); err == nil {
		t.Error("kernel-less worker accepted")
	}
	solo, _ := loopsched.NewWorld(1)
	if _, _, err := loopsched.RunMPMasterContext(context.Background(), solo[0], tss, 10, loopsched.MPMasterOptions{}); err == nil {
		t.Error("worker-less world accepted")
	}
}

// TestTCPStress: eight TCP workers hammer one master with thousands
// of one-iteration chunks; everything must arrive intact.
func TestTCPStress(t *testing.T) {
	const n, workers = 4000, 8
	master, dial := tcpWorld(t, workers)
	results, rep := runLoop(t, master, dial, scheme(t, "SS"), n, workers, func(r int) loopsched.MPWorkerOptions {
		return loopsched.MPWorkerOptions{Kernel: squareKernel, VirtualPower: float64(1 + r%3), ACP: acpModel()}
	})
	if rep.Chunks != n {
		t.Errorf("chunks = %d, want %d", rep.Chunks, n)
	}
	checkSquares(t, "stress", results)
}

// TestLoopEquivalenceAcrossTransports: in-process and TCP runs of the
// same scheme produce identical result sets.
func TestLoopEquivalenceAcrossTransports(t *testing.T) {
	const n = 200
	opts := func(int) loopsched.MPWorkerOptions {
		return loopsched.MPWorkerOptions{Kernel: squareKernel, ACP: acpModel()}
	}
	master, slave := localWorld(t, 2)
	inproc, _ := runLoop(t, master, slave, scheme(t, "TFSS"), n, 2, opts)
	master, dial := tcpWorld(t, 2)
	overTCP, _ := runLoop(t, master, dial, scheme(t, "TFSS"), n, 2, opts)
	for i := range inproc {
		if !bytes.Equal(inproc[i], overTCP[i]) {
			t.Fatalf("transports disagree at %d", i)
		}
	}
}

// TestEmptyBodyCompletionsReconcile: every granted chunk is closed by a
// ChunkCompleted — one per run, counting its chunks — and books its Comp
// even when it computes in well under a microsecond. Completions are the workers' to publish, as on rpc, so
// the run goes through Run(BackendMP), which hands them the bus.
func TestEmptyBodyCompletionsReconcile(t *testing.T) {
	const n = 4096
	tel, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{BufferSize: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer tel.Close()
	var mu sync.Mutex
	completed := 0
	tel.Bus().Subscribe(completionCounter{&mu, &completed})
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:    loopsched.NewCSS(4),
		Workload:  loopsched.Uniform{N: n},
		Backend:   loopsched.BackendMP,
		Workers:   []*loopsched.WorkerSpec{{}, {}},
		Kernel:    func(int) []byte { return nil },
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := tel.Bus().Dropped(); d != 0 {
		t.Fatalf("%d events dropped; the ring is too small for this test", d)
	}
	mu.Lock()
	defer mu.Unlock()
	if completed != rep.Chunks || rep.Chunks != n/4 {
		t.Errorf("ChunkCompleted events closing %d chunks for %d chunks (want %d)", completed, rep.Chunks, n/4)
	}
	if rep.CompLatency.Count != uint64(rep.Chunks) {
		t.Errorf("%d compute-latency samples for %d chunks", rep.CompLatency.Count, rep.Chunks)
	}
}

type completionCounter struct {
	mu *sync.Mutex
	n  *int
}

func (completionCounter) BeginRun(telemetry.RunMeta) {}
func (completionCounter) Close() error               { return nil }
func (c completionCounter) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.ChunkCompleted {
		c.mu.Lock()
		*c.n += e.Chunks()
		c.mu.Unlock()
	}
}

// runCancelled drives a world where the context is cancelled once the
// first kernel call lands, and asserts the master returns with
// ctx.Err() while every worker unwinds cleanly (no goroutine left
// blocked on a reply that will never come). The first kernel call holds
// its iteration until another worker has returned: the loop cannot
// complete while that iteration is held, so the other worker can only
// have been stopped by the cancel — a cancel loses only to completion.
func runCancelled(t *testing.T, master loopsched.Comm, slave func(int) loopsched.Comm, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var first atomic.Bool
	var returned sync.Once
	oneReturned := make(chan struct{})
	var wg sync.WaitGroup
	workerErrs := make([]error, workers)
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			workerErrs[r-1] = loopsched.RunMPWorker(slave(r), loopsched.MPWorkerOptions{
				Kernel: func(int) []byte {
					if first.CompareAndSwap(false, true) {
						cancel()
						<-oneReturned
					}
					return nil
				},
			})
			returned.Do(func() { close(oneReturned) })
		}()
	}
	_, _, err := loopsched.RunMPMasterContext(ctx, master, scheme(t, "TSS"), 1<<20, loopsched.MPMasterOptions{})
	if err != context.Canceled {
		t.Fatalf("master returned %v, want context.Canceled", err)
	}
	// The master is back, so every slave has been answered Stop.
	wg.Wait()
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
}

func TestRunMasterContextCancelLocal(t *testing.T) {
	master, slave := localWorld(t, 3)
	runCancelled(t, master, slave, 3)
}

func TestRunMasterContextCancelTCP(t *testing.T) {
	master, dial := tcpWorld(t, 3)
	runCancelled(t, master, dial, 3)
}

// lateSlaves cancels a master before any slave has made a request, then
// lets the slaves arrive: each must be answered Stop without computing
// anything, and only then may the master return.
func lateSlaves(t *testing.T, master loopsched.Comm, slave func(int) loopsched.Comm, workers int) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	masterErr := make(chan error, 1)
	go func() {
		_, _, err := loopsched.RunMPMasterContext(ctx, master, scheme(t, "TSS"), 1000, loopsched.MPMasterOptions{})
		masterErr <- err
	}()
	errc := make(chan error, workers)
	for r := 1; r <= workers; r++ {
		c := slave(r)
		go func() {
			errc <- loopsched.RunMPWorker(c, loopsched.MPWorkerOptions{Kernel: func(i int) []byte {
				t.Errorf("iteration %d computed after the cancel", i)
				return nil
			}})
		}()
	}
	for r := 1; r <= workers; r++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("late slave: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a slave that arrived after the cancel never saw its stop")
		}
	}
	if err := <-masterErr; err != context.Canceled {
		t.Fatalf("master returned %v, want context.Canceled", err)
	}
}

// TestCancelReachesLateDialler: a master cancelled before the ranks have
// even dialled must still stop each one when it connects and asks.
func TestCancelReachesLateDialler(t *testing.T) {
	master, dial := tcpWorld(t, 2)
	lateSlaves(t, master, dial, 2)
}

func TestRunMasterContextPreCancelled(t *testing.T) {
	master, slave := localWorld(t, 1)
	lateSlaves(t, master, slave, 1)
}
