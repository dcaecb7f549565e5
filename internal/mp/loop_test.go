package mp

import (
	"bytes"
	"encoding/binary"
	"net"
	"sync"
	"testing"

	"loopsched/internal/acp"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

func squareKernel(i int) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(i*i+13))
	return buf[:]
}

// runLoop executes the master/slave program over an in-process world.
func runLoop(t *testing.T, scheme sched.Scheme, iterations, workers int, opts func(int) WorkerOptions) [][]byte {
	t.Helper()
	world, err := NewWorld(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := RunWorker(world[r], opts(r)); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}
	results, rep, err := RunMaster(world[0], scheme, iterations, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks < 1 && iterations > 0 {
		t.Errorf("no chunks in report %+v", rep)
	}
	return results
}

func TestLoopInProcess(t *testing.T) {
	const n = 700
	for _, name := range []string{"SS", "TSS", "FSS", "TFSS", "DTSS", "DFISS"} {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		results := runLoop(t, s, n, 3, func(r int) WorkerOptions {
			o := WorkerOptions{Kernel: squareKernel, ACP: acpModel()}
			if r == 3 {
				o.VirtualPower = 1
				o.WorkScale = 2
			} else {
				o.VirtualPower = 2
			}
			return o
		})
		for i, r := range results {
			if !bytes.Equal(r, squareKernel(i)) {
				t.Fatalf("%s: result %d corrupted", name, i)
			}
		}
	}
}

func acpModel() acp.Model { return acp.Model{Scale: 10} }

func TestLoopOverTCP(t *testing.T) {
	const n = 300
	const workers = 3
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err := ListenTCP(ln, workers+1)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()

	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := DialTCP(ln.Addr().String(), r, workers+1)
			if err != nil {
				t.Errorf("dial %d: %v", r, err)
				return
			}
			defer comm.Close()
			if err := RunWorker(comm, WorkerOptions{
				Kernel: squareKernel, VirtualPower: float64(r), ACP: acpModel(),
			}); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}
	results, rep, err := RunMaster(master, sched.DTSSScheme{}, n, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != n {
		t.Errorf("iterations %d", rep.Iterations)
	}
	for i, r := range results {
		if !bytes.Equal(r, squareKernel(i)) {
			t.Fatalf("TCP result %d corrupted", i)
		}
	}
}

func TestLoopValidation(t *testing.T) {
	world, _ := NewWorld(2)
	if _, _, err := RunMaster(world[1], sched.TSSScheme{}, 10, MasterOptions{}); err == nil {
		t.Error("non-zero-rank master accepted")
	}
	if err := RunWorker(world[0], WorkerOptions{Kernel: squareKernel}); err == nil {
		t.Error("rank-0 worker accepted")
	}
	if err := RunWorker(world[1], WorkerOptions{}); err == nil {
		t.Error("kernel-less worker accepted")
	}
	solo, _ := NewWorld(1)
	if _, _, err := RunMaster(solo[0], sched.TSSScheme{}, 10, MasterOptions{}); err == nil {
		t.Error("worker-less world accepted")
	}
}

func TestTCPValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ListenTCP(ln, 1); err == nil {
		t.Error("1-rank TCP world accepted")
	}
	if _, err := DialTCP(ln.Addr().String(), 0, 3); err == nil {
		t.Error("rank-0 dial accepted")
	}
	if _, err := DialTCP("127.0.0.1:1", 1, 2); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestTCPWorkerCannotReachPeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err := ListenTCP(ln, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	w, err := DialTCP(ln.Addr().String(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Send(2, 1, nil); err == nil {
		t.Error("worker-to-worker send accepted on star topology")
	}
}

// TestTCPStress: eight TCP workers hammer one master with thousands
// of small chunks; everything must arrive intact.
func TestTCPStress(t *testing.T) {
	const n = 4000
	const workers = 8
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err := ListenTCP(ln, workers+1)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := DialTCP(ln.Addr().String(), r, workers+1)
			if err != nil {
				t.Errorf("dial %d: %v", r, err)
				return
			}
			defer comm.Close()
			if err := RunWorker(comm, WorkerOptions{
				Kernel:       squareKernel,
				VirtualPower: float64(1 + r%3),
				ACP:          acpModel(),
			}); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}
	// SS maximises protocol traffic: one round trip per iteration.
	results, rep, err := RunMaster(master, sched.SelfScheduling, n, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Chunks != n {
		t.Errorf("chunks = %d, want %d", rep.Chunks, n)
	}
	for i, r := range results {
		if !bytes.Equal(r, squareKernel(i)) {
			t.Fatalf("result %d corrupted under stress", i)
		}
	}
}

// TestLoopEquivalenceAcrossTransports: in-process and TCP runs of the
// same scheme produce identical result sets.
func TestLoopEquivalenceAcrossTransports(t *testing.T) {
	const n = 200
	inproc := runLoop(t, sched.TFSSScheme{}, n, 2, func(r int) WorkerOptions {
		return WorkerOptions{Kernel: squareKernel, ACP: acpModel()}
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err := ListenTCP(ln, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var wg sync.WaitGroup
	for r := 1; r <= 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			comm, err := DialTCP(ln.Addr().String(), r, 3)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer comm.Close()
			if err := RunWorker(comm, WorkerOptions{Kernel: squareKernel, ACP: acpModel()}); err != nil {
				t.Errorf("worker: %v", err)
			}
		}(r)
	}
	overTCP, _, err := RunMaster(master, sched.TFSSScheme{}, n, MasterOptions{})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range inproc {
		if !bytes.Equal(inproc[i], overTCP[i]) {
			t.Fatalf("transports disagree at %d", i)
		}
	}
}

// kindCounter tallies bus events by kind.
type kindCounter struct {
	mu sync.Mutex
	n  map[telemetry.Kind]int
}

func (k *kindCounter) BeginRun(telemetry.RunMeta) {}
func (k *kindCounter) Close() error               { return nil }
func (k *kindCounter) OnEvent(e telemetry.Event) {
	k.mu.Lock()
	k.n[e.Kind]++
	k.mu.Unlock()
}

// TestEmptyBodyCompletionsReconcile: every granted chunk publishes its
// ChunkCompleted and books its Comp even when it computes in
// well under a microsecond. The completion time used to travel as whole
// microseconds with 0 meaning "none", so an empty-body CSS loop lost
// most of its completions.
func TestEmptyBodyCompletionsReconcile(t *testing.T) {
	const n, workers = 4096, 2
	bus := telemetry.NewBus(1 << 15)
	defer bus.Close()
	events := &kindCounter{n: map[telemetry.Kind]int{}}
	bus.Subscribe(events)

	world, err := NewWorld(workers + 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for r := 1; r <= workers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			if err := RunWorker(world[r], WorkerOptions{Kernel: func(int) []byte { return nil }}); err != nil {
				t.Errorf("worker %d: %v", r, err)
			}
		}(r)
	}
	_, rep, err := RunMaster(world[0], sched.CSSScheme{K: 4}, n, MasterOptions{Telemetry: bus})
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	bus.Flush()
	if d := bus.Dropped(); d != 0 {
		t.Fatalf("%d events dropped; the ring is too small for this test", d)
	}
	events.mu.Lock()
	defer events.mu.Unlock()
	if got := events.n[telemetry.ChunkCompleted]; got != rep.Chunks || rep.Chunks != n/4 {
		t.Errorf("%d ChunkCompleted events for %d chunks (want %d)", got, rep.Chunks, n/4)
	}
	// Which worker ran how many chunks is timing; that each chunk booked
	// at least its nanosecond is not.
	comp := 0.0
	for _, pw := range rep.PerWorker {
		comp += pw.Comp
	}
	if comp < float64(rep.Chunks)*1e-9 {
		t.Errorf("%d chunks booked %g s of Comp in all, want at least a nanosecond each", rep.Chunks, comp)
	}
}
