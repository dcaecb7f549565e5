package mp

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"loopsched/internal/sched"
)

// runCancelled drives a world where the context is cancelled once the
// first kernel call lands, and asserts the master returns promptly
// with ctx.Err() while every worker unwinds cleanly (no goroutine left
// blocked on a reply that will never come).
func runCancelled(t *testing.T, master Comm, workers []Comm) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	var wg sync.WaitGroup
	workerErrs := make([]error, len(workers))
	for i, wc := range workers {
		wg.Add(1)
		go func(i int, wc Comm) {
			defer wg.Done()
			workerErrs[i] = RunWorker(wc, WorkerOptions{
				Kernel: func(iter int) []byte {
					once.Do(cancel)
					return nil
				},
			})
		}(i, wc)
	}
	scheme, err := sched.Lookup("TSS")
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = RunMasterContext(ctx, master, scheme, 1<<20, MasterOptions{})
	if err != context.Canceled {
		t.Fatalf("master returned %v, want context.Canceled", err)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("workers did not unwind after cancellation")
	}
	for i, werr := range workerErrs {
		if werr != nil {
			t.Errorf("worker %d: %v", i, werr)
		}
	}
}

func TestRunMasterContextCancelLocal(t *testing.T) {
	world, err := NewWorld(4)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range world {
			c.Close()
		}
	}()
	runCancelled(t, world[0], world[1:])
}

func TestRunMasterContextCancelTCP(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const size = 4
	master, err := ListenTCP(ln, size)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	var workers []Comm
	for r := 1; r < size; r++ {
		wc, err := DialTCP(ln.Addr().String(), r, size)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		workers = append(workers, wc)
	}
	runCancelled(t, master, workers)
}

// TestCancelReachesLateDialler pins the held-frame fix: a master
// cancelled before the last rank has dialled must still stop that rank
// when it connects. Before the fix the stop was dropped ("rank not
// connected") and the late slave blocked in Recv until the master's
// Close.
func TestCancelReachesLateDialler(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const size = 3
	master, err := ListenTCP(ln, size)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scheme, _ := sched.Lookup("TSS")
	if _, _, err := RunMasterContext(ctx, master, scheme, 1000, MasterOptions{}); err != context.Canceled {
		t.Fatalf("master returned %v, want context.Canceled", err)
	}
	// Nobody has dialled yet; every rank's stop is being held.
	errc := make(chan error, size-1)
	for r := 1; r < size; r++ {
		wc, err := DialTCP(ln.Addr().String(), r, size)
		if err != nil {
			t.Fatal(err)
		}
		defer wc.Close()
		go func() {
			errc <- RunWorker(wc, WorkerOptions{Kernel: func(int) []byte { return nil }})
		}()
	}
	for r := 1; r < size; r++ {
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("late slave: %v", err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("a slave that dialled after the cancel never saw its stop")
		}
	}
}

func TestRunMasterContextPreCancelled(t *testing.T) {
	world, err := NewWorld(2)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	scheme, _ := sched.Lookup("FSS")
	errc := make(chan error, 1)
	go func() {
		// The lone worker never even has to run: the injected wake must
		// release the master's very first Recv.
		_, _, err := RunMasterContext(ctx, world[0], scheme, 100, MasterOptions{})
		errc <- err
	}()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("pre-cancelled master never returned")
	}
	// The worker must find a tagStop waiting for it.
	msg, err := world[1].Recv(0, AnyTag)
	if err != nil || msg.Tag != tagStop {
		t.Fatalf("worker saw (%v, %v), want tagStop", msg.Tag, err)
	}
}
