package exec

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/workload"
)

// starveGate turns "one worker holds the whole loop" into a test
// failure instead of a slow run: iteration 0 does not return until some
// other iteration has started. The worker inside iteration 0's chunk is
// stuck there, so any other iteration that starts is a different
// worker's — which can only happen if the batcher left it chunks to
// claim (or, on the steal engine, to steal).
type starveGate struct {
	other   chan struct{}
	once    sync.Once
	starved atomic.Bool
}

func newStarveGate() *starveGate { return &starveGate{other: make(chan struct{})} }

func (g *starveGate) visit(i int) {
	if i != 0 {
		g.once.Do(func() { close(g.other) })
		return
	}
	select {
	case <-g.other:
	case <-time.After(5 * time.Second):
		g.starved.Store(true) // give up so the run still ends; check reports it
	}
}

func (g *starveGate) check(t *testing.T) {
	t.Helper()
	if g.starved.Load() {
		t.Error("iteration 0 waited 5s and no other worker started a chunk: one worker held every chunk of the loop")
	}
}

// TestNoWorkerHoldsTheWholeLoop is the starvation regression test for
// the share-bounded batch rule (docs/LEDGER.md): on the benchmark's
// TFSS N=2000 p=2 loop — 8 chunks — the first worker to arrive must not
// take them all. The wire ledger did exactly that with two 4-step
// claims in flight and no way for the second worker to get any back;
// the steal engine's 8-chunk refill was rescued by stealing and must
// keep passing.
func TestNoWorkerHoldsTheWholeLoop(t *testing.T) {
	const n, p = 2000, 2
	t.Run("rpc-binary-ledger", func(t *testing.T) {
		m, addr, stop := startLedgerMaster(t, sched.TFSSScheme{}, n, p)
		defer stop()
		if !m.LedgerActive() {
			t.Fatal("ledger did not arm for TFSS")
		}
		g := newStarveGate()
		kernel := func(i int) []byte {
			g.visit(i)
			return intKernel(i)
		}
		runWorkers(t, addr, []Worker{
			{ID: 0, Kernel: kernel, Transport: TransportBinary, LedgerTable: m.Ledger},
			{ID: 1, Kernel: kernel, Transport: TransportBinary, LedgerTable: m.Ledger},
		})
		if _, rep, err := m.Wait(); err != nil || rep.Iterations != n {
			t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
		}
		g.check(t)
	})
	for _, mode := range []LedgerMode{LedgerOn, LedgerOff} {
		t.Run("local-steal-ledger-"+string(mode), func(t *testing.T) {
			g := newStarveGate()
			l := &Local{Scheme: sched.TFSSScheme{}, Workers: specs(1, 1), Engine: EngineSteal, Ledger: mode}
			if rep, err := l.Run(workload.Uniform{N: n}, g.visit); err != nil || rep.Iterations != n {
				t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
			}
			g.check(t)
		})
	}
}

// eventLog collects bus events for a test driving a JobState from one
// goroutine: after Bus.Flush the log holds everything published so far,
// in publish order.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (l *eventLog) BeginRun(telemetry.RunMeta) {}
func (l *eventLog) Close() error               { return nil }
func (l *eventLog) OnEvent(e telemetry.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// drain returns and forgets the events logged so far.
func (l *eventLog) drain() []telemetry.Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.events
	l.events = nil
	return out
}

// TestRefillBatchesAreShareBounded is the JobState property behind the
// rule, on both refill paths, for every registered scheme: a refill's
// DequeRefilled event carries the number of chunks it really took, at
// most the window, and the iterations in it stay within
// sched.BatchLimit of what was left when it started unless it is a
// single chunk. The ledger path knows every chunk's size and meets the
// bound exactly; the policy path predicts the next chunk by the last
// one, so there the bound holds for the batch with its last chunk
// replaced by its predecessor — the same thing for the non-increasing
// sequences of the paper's schemes. A LedgerFetch carries the claim
// that was made, never less than the chunks it yielded.
func TestRefillBatchesAreShareBounded(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LedgerMode{LedgerOff, LedgerOn} {
			for _, p := range []int{2, 3, 8} {
				for _, n := range []int{p - 1, 2000, 20000} {
					for _, window := range []int{0, 3} {
						t.Run(fmt.Sprintf("%s/ledger-%s/p%d/n%d/w%d", name, mode, p, n, window), func(t *testing.T) {
							checkRefillBatches(t, s, mode, p, n, window)
						})
					}
				}
			}
		}
	}
}

func checkRefillBatches(t *testing.T, s sched.Scheme, mode LedgerMode, p, n, window int) {
	bus := telemetry.NewBus(256) // flushed after every refill: a batch of events at most
	defer bus.Close()
	log := &eventLog{}
	bus.Subscribe(log)
	js, err := NewJobState(JobConfig{
		Scheme: s, Workload: workload.Uniform{N: n}, Workers: p,
		Window: window, Ledger: mode, Telemetry: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if window <= 0 {
		window = DefaultStealWindow
	}
	multi := 0
	for w := 0; !js.Finished(); w = (w + 1) % p {
		a, ok := js.Pop(w)
		for ok {
			js.Complete(w, a, 1, 0)
			a, ok = js.Pop(w)
		}
		a, _, ok = js.Refill(w, 1+w, 0, 0)
		bus.Flush()
		var sizes []int
		claimed := -1
		for _, e := range log.drain() {
			switch e.Kind {
			case telemetry.LedgerFetch:
				claimed = e.Start
			case telemetry.ChunkGranted:
				sizes = append(sizes, e.Size)
			case telemetry.DequeRefilled:
				if e.Size != len(sizes) || e.Start != a.Start {
					t.Fatalf("DequeRefilled says %d chunks from %d, the refill granted %d from %d", e.Size, e.Start, len(sizes), a.Start)
				}
			}
		}
		if !ok {
			if len(sizes) != 0 {
				t.Fatalf("empty refill granted %d chunks", len(sizes))
			}
			continue
		}
		if len(sizes) < 1 || len(sizes) > window {
			t.Fatalf("refill took %d chunks, window %d", len(sizes), window)
		}
		if js.LedgerActive() && (claimed < len(sizes) || claimed > window) {
			t.Fatalf("LedgerFetch claimed %d steps, the refill got %d chunks (window %d)", claimed, len(sizes), window)
		}
		iters := 0
		for _, sz := range sizes {
			iters += sz
		}
		if k := len(sizes); k > 1 {
			multi++
			limit := sched.BatchLimit(n-a.Start, n, p)
			bounded := iters
			if !js.LedgerActive() {
				bounded += sizes[k-2] - sizes[k-1]
			}
			if bounded > limit {
				t.Fatalf("refill at %d of %d took chunks %v = %d iterations, limit %d", a.Start, n, sizes, iters, limit)
			}
		}
		js.Complete(w, a, 1, 0)
	}
	if c := js.Counts(); c.Granted != int64(n) || c.Completed != int64(n) {
		t.Fatalf("granted %d, completed %d of %d", c.Granted, c.Completed, n)
	}
	// The floor keeps fine loops batching: a fixed-chunk scheme over a
	// long loop must still fill its window.
	if k, ok := sched.FixedChunk(s, sched.Config{Iterations: n, Workers: p}); ok && k*window <= n/(32*p) && multi == 0 {
		t.Errorf("no refill of this fine loop (chunk %d, N %d) took more than one chunk", k, n)
	}
}
