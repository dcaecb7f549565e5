package exec

import (
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/ledger"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
	"loopsched/internal/workload"
)

// starveGate turns "one worker holds the whole loop" into a test
// failure instead of a slow run: iteration 0 does not return until some
// other iteration has started. The worker inside iteration 0's chunk is
// stuck there, so any other iteration that starts is a different
// worker's — which can only happen if the batcher left it chunks to
// claim. With need set the gate
// opens only once every one of those iterations has started.
type starveGate struct {
	need    []int
	started atomic.Int32 // how many of need have
	other   chan struct{}
	once    sync.Once
	starved atomic.Bool
}

func newStarveGate(need ...int) *starveGate {
	return &starveGate{need: need, other: make(chan struct{})}
}

func (g *starveGate) visit(i int) {
	if i != 0 {
		if len(g.need) == 0 || slices.Contains(g.need, i) && int(g.started.Add(1)) == len(g.need) {
			g.once.Do(func() { close(g.other) })
		}
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
		t.Error("iteration 0 waited 5s and no other worker started the chunks that open the gate: the stuck worker held them")
	}
}

// TestNoWorkerHoldsTheWholeLoop is the starvation regression test for
// the share-bounded batch rule (docs/LEDGER.md): on the benchmark's
// TFSS N=2000 p=2 loop — 8 chunks — the first worker to arrive must not
// take them all. The master's replies are share-bounded batches, over
// the wire and over memory links, to a scheduler fleet's prefetches
// (local-steal) as to a slave loop, with or without the pipeline, and
// with two workers at their default depth
// (rpc-binary-ledger) the run is TFSS's nominal steps, each granted once.
// The fleet's ledger-on leg grants what its ledger-off leg grants, and
// no ledger fetch.
func TestNoWorkerHoldsTheWholeLoop(t *testing.T) {
	const n, p = 2000, 2
	for _, pipeline := range []bool{false, true} {
		// A wK leg's workers ask for what outlasts K round trips (w0 is
		// the default of one): at w8 every ask after the first is eight
		// times greedier than a link's, and the share bound alone stops
		// one worker taking the loop, as a credit window of 8 once did.
		for _, trips := range []int{0, 8} {
			t.Run(fmt.Sprintf("rpc-binary/pipeline=%v/w%d", pipeline, trips), func(t *testing.T) {
				m, addr, stop := serveMaster(t, Config{Scheme: sched.TFSSScheme{}, Iterations: n, Workers: p})
				defer stop()
				g := newStarveGate()
				kernel := func(i int) []byte {
					g.visit(i)
					return intKernel(i)
				}
				runWorkers(t, addr, []Worker{
					{ID: 0, Kernel: kernel, Transport: TransportBinary, Pipeline: pipeline, trips: float64(trips)},
					{ID: 1, Kernel: kernel, Transport: TransportBinary, Pipeline: pipeline, trips: float64(trips)},
				})
				if _, rep, err := m.Wait(); err != nil || rep.Iterations != n {
					t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
				}
				g.check(t)
			})
		}
	}
	t.Run("rpc-binary-ledger", func(t *testing.T) {
		m, addr, stop := startMaster(t, sched.TFSSScheme{}, n, p)
		defer stop()
		g := newStarveGate()
		kernel := func(i int) []byte {
			g.visit(i)
			return intKernel(i)
		}
		runWorkers(t, addr, []Worker{
			{ID: 0, Kernel: kernel, Transport: TransportBinary},
			{ID: 1, Kernel: kernel, Transport: TransportBinary},
		})
		_, rep, err := m.Wait()
		if err != nil || rep.Iterations != n {
			t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
		}
		if want := nominalSteps(t, sched.TFSSScheme{}, n, p); rep.Chunks != want {
			t.Fatalf("chunks = %d, want TFSS's %d steps granted exactly once", rep.Chunks, want)
		}
		g.check(t)
	})
	for _, mode := range []LedgerMode{LedgerOn, LedgerOff} {
		t.Run("local-steal-ledger-"+string(mode), func(t *testing.T) {
			grants := stealGrants(t, mode, n)
			if mode == LedgerOn {
				if want := stealGrants(t, LedgerOff, n); !slices.Equal(grants, want) {
					t.Fatalf("ledger-on grants %v, ledger-off %v", grants, want)
				}
			}
		})
	}
	for _, pipeline := range []bool{false, true} {
		t.Run(fmt.Sprintf("local-memory/pipeline=%v", pipeline), func(t *testing.T) {
			g := newStarveGate()
			l := &localRun{Scheme: sched.TFSSScheme{}, Workers: specs(1, 1), Pipeline: pipeline}
			if rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, g.visit); err != nil || rep.Iterations != n {
				t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
			}
			g.check(t)
		})
	}
}

// TestPrefetchBindsLate holds the pipeline to late binding on the same
// loop: iteration 0 does not return until iterations 464 and 928 — the
// second and the third chunk — have both started. The worker stuck in
// the first chunk has timed nothing yet, so it must not have asked for
// more: both are then the other worker's, the third granted when that
// one nears the end of the second. A worker that prefetches as it starts
// its first chunk takes one of the two with it, whichever request the
// master sees first, and the gate never opens.
func TestPrefetchBindsLate(t *testing.T) {
	const n, p = 2000, 2
	m, addr, stop := startMaster(t, sched.TFSSScheme{}, n, p)
	defer stop()
	g := newStarveGate(464, 928)
	kernel := func(i int) []byte {
		g.visit(i)
		return intKernel(i)
	}
	runWorkers(t, addr, []Worker{
		{ID: 0, Kernel: kernel, Transport: TransportBinary, Pipeline: true},
		{ID: 1, Kernel: kernel, Transport: TransportBinary, Pipeline: true},
	})
	if _, rep, err := m.Wait(); err != nil || rep.Iterations != n {
		t.Fatalf("run: %d iterations, err %v", rep.Iterations, err)
	}
	g.check(t)
}

// stealGrants runs a fleet's dialogue with a job master (stealRun) on the
// starvation loop under the ledger mode and returns its grants in loop
// order, after checking the gate and that no ledger fetch was published.
func stealGrants(t *testing.T, mode LedgerMode, n int) []sched.Assignment {
	t.Helper()
	g := newStarveGate()
	bus := telemetry.NewBus(1 << 16) // a worker waiting on the last chunk requests again and again
	log := &eventLog{}
	bus.Subscribe(log)
	l := &stealRun{Scheme: sched.TFSSScheme{}, Workers: specs(1, 1), Ledger: mode, Telemetry: bus}
	rep, err := l.RunContext(context.Background(), workload.Uniform{N: n}, g.visit)
	bus.Close()
	if err != nil || rep.Iterations != n {
		t.Fatalf("ledger-%s run: %d iterations, err %v", mode, rep.Iterations, err)
	}
	g.check(t)
	if d := bus.Dropped(); d > 0 {
		t.Fatalf("ledger-%s run: the bus dropped %d events", mode, d)
	}
	var grants []sched.Assignment
	for _, e := range log.drain() {
		switch e.Kind {
		case telemetry.LedgerFetch:
			t.Fatalf("ledger-%s run published a ledger fetch", mode)
		case telemetry.ChunkGranted, telemetry.ChunkPrefetched:
			grants = append(grants, sched.Assignment{Start: e.Start, Size: e.Size})
		}
	}
	slices.SortFunc(grants, func(a, b sched.Assignment) int { return a.Start - b.Start })
	return grants
}

// nominalSteps is the oracle a run granted from the scheme's policy
// meets when no request changes a chunk: the length of its chunk
// sequence over n iterations on p workers (ledger.Build's step count).
func nominalSteps(t *testing.T, s sched.Scheme, n, p int) int {
	t.Helper()
	tab, err := ledger.Build(s, sched.Config{Iterations: n, Workers: p})
	if err != nil {
		t.Fatal(err)
	}
	return tab.Steps()
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
// rule, for every registered scheme and both ledger modes: a refill's
// DequeRefilled event carries the number of chunks it really took, at
// most what it asked, and the iterations in it stay within
// sched.BatchLimit of what was left when it started unless it is a
// single chunk. The policy predicts the next chunk by the last one, so
// the bound holds for the batch with its last chunk replaced by its
// predecessor — the same thing for the non-increasing sequences of the
// paper's schemes. Every refill draws from the policy: a ledger-on job
// grants exactly what a ledger-off one does, and publishes no
// LedgerFetch. A refill asks for DefaultStealWindow chunks (w0); a w3
// leg asks for 3, a batch the share bound cuts less often than the ask.
func TestRefillBatchesAreShareBounded(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []LedgerMode{LedgerOff, LedgerOn} {
			for _, p := range []int{2, 3, 8} {
				for _, n := range []int{p - 1, 2000, 20000} {
					for _, ask := range []int{0, 3} {
						t.Run(fmt.Sprintf("%s/ledger-%s/p%d/n%d/w%d", name, mode, p, n, ask), func(t *testing.T) {
							grants := checkRefillBatches(t, s, mode, p, n, ask)
							if mode == LedgerOn {
								if want := checkRefillBatches(t, s, LedgerOff, p, n, ask); !slices.Equal(grants, want) {
									t.Fatalf("ledger-on grants %v, ledger-off %v", grants, want)
								}
							}
						})
					}
				}
			}
		}
	}
}

// checkRefillBatches drives one job to its end, checking every refill,
// and returns its grants in grant order. A refill asks for as many chunks
// as its worker's scratch holds: an ask above 0 narrows that to ask.
func checkRefillBatches(t *testing.T, s sched.Scheme, mode LedgerMode, p, n, ask int) []sched.Assignment {
	bus := telemetry.NewBus(256) // flushed after every refill: a batch of events at most
	defer bus.Close()
	log := &eventLog{}
	bus.Subscribe(log)
	js, err := NewJobState(JobConfig{
		Scheme: s, Workload: workload.Uniform{N: n}, Workers: p,
		Ledger: mode, Telemetry: bus,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ask <= 0 {
		ask = DefaultStealWindow
	}
	for w := range js.scratch {
		js.scratch[w] = make([]sched.Run, 0, ask)
	}
	multi, completed := 0, 0
	var grants []sched.Assignment
	// A worker refills once its own deque is empty; p refills in a row
	// that find the policy dry leave every deque empty.
	for w, dry := 0, 0; dry < p; w = (w + 1) % p {
		a, ok := js.Pop(w)
		for ok {
			js.Complete(w, a, 1, 0)
			completed += a.Size
			a, ok = js.Pop(w)
		}
		a, _, ok = js.Refill(w, 1+w, 0, 0)
		bus.Flush()
		var sizes []int
		for _, e := range log.drain() {
			switch e.Kind {
			case telemetry.LedgerFetch:
				t.Fatalf("ledger-%s job published a ledger fetch", mode)
			case telemetry.ChunkGranted:
				sizes = append(sizes, e.Size)
				grants = append(grants, sched.Assignment{Start: e.Start, Size: e.Size})
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
			dry++
			continue
		}
		dry = 0
		if len(sizes) < 1 || len(sizes) > ask {
			t.Fatalf("refill took %d chunks, ask %d", len(sizes), ask)
		}
		iters := 0
		for _, sz := range sizes {
			iters += sz
		}
		if k := len(sizes); k > 1 {
			multi++
			limit := sched.BatchLimit(n-a.Start, n, p)
			if bounded := iters + sizes[k-2] - sizes[k-1]; bounded > limit {
				t.Fatalf("refill at %d of %d took chunks %v = %d iterations, limit %d", a.Start, n, sizes, iters, limit)
			}
		}
		js.Complete(w, a, 1, 0)
		completed += a.Size
	}
	granted := 0
	for _, g := range grants {
		granted += g.Size
	}
	if granted != n || completed != n {
		t.Fatalf("granted %d, completed %d of %d", granted, completed, n)
	}
	// The floor keeps fine loops batching: a fixed-chunk scheme over a
	// long loop must still fill its ask.
	if k, ok := sched.FixedChunk(s, sched.Config{Iterations: n, Workers: p}); ok && k*ask <= n/(32*p) && multi == 0 {
		t.Errorf("no refill of this fine loop (chunk %d, N %d) took more than one chunk", k, n)
	}
	return grants
}

// TestMasterRepliesAreShareBounded is the same property on the rpc
// master path, for every registered scheme: the chunks of one reply
// stay within sched.BatchLimit of what was left when it was cut, unless
// it is a single chunk — with the last chunk replaced by its
// predecessor, as on JobState's refills.
// One goroutine plays every worker: each request delivers what the
// worker holds and asks, as a prefetch so that nothing parks, for all a
// request can ask (w0) or, in a wK leg, for K+1 chunks — a chunk in hand
// and K more, the ask of a worker whose round trip is K chunks; the gather of a distributed scheme is the same
// requests, answered empty until the last report is in.
func TestMasterRepliesAreShareBounded(t *testing.T) {
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{1, 2, 3, 8} {
			for _, n := range []int{p - 1, 2000, 65536} {
				for _, k := range []int{0, 1, 8} {
					t.Run(fmt.Sprintf("%s/p%d/n%d/w%d", name, p, n, k), func(t *testing.T) {
						checkMasterReplies(t, s, p, n, k)
					})
				}
			}
		}
	}
}

// TestMasterDoesNotTrustCredits holds the master to the share bound:
// over a real wire connection a peer asking for
// 2^30 chunks of a CSS(1) loop of 2^20 iterations gets share-bounded
// replies (sched.BatchLimit over what is left), however often it asks
// and although it delivers nothing, and the worker's ledger holds
// exactly what it was granted. The same holds for a shard master whose
// source hands out the loop in super-chunks.
func TestMasterDoesNotTrustCredits(t *testing.T) {
	const n, p = 1 << 20, 2
	flat, err := NewMaster(sched.CSSScheme{K: 1}, n, p)
	if err != nil {
		t.Fatal(err)
	}
	src := &scriptSource{}
	for start := 0; start < n; start += n / 4 {
		src.held = append(src.held, sched.Assignment{Start: start, Size: n / 4})
	}
	staged, err := New(Config{Scheme: sched.CSSScheme{K: 1}, Iterations: n, Workers: p, Source: src, Members: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*Master{flat, staged} {
		checkShareBound(t, m, n, p)
	}
}

func checkShareBound(t *testing.T, m *Master, n, p int) {
	client, server := net.Pipe()
	served := make(chan struct{})
	go func() {
		defer close(served)
		m.ServeConn(server)
	}()
	defer func() {
		client.Close()
		<-served
	}()
	c, err := wire.NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	var rep wire.Reply
	granted := 0
	for i := 0; i < 4; i++ {
		req := wire.Request{Worker: 0, ACP: 1, Prefetch: i > 0, Credits: 1 << 30}
		if err := c.Call(&req, &rep); err != nil {
			t.Fatal(err)
		}
		if limit := sched.BatchLimit(n-granted, n, p); rep.Chunks() > limit {
			t.Fatalf("request %d: reply of %d one-iteration chunks, want at most %d", i, rep.Chunks(), limit)
		}
		granted += rep.Chunks()
		s := &m.slots[0]
		s.mu.Lock()
		held := 0
		for _, r := range m.b.Held(0) {
			held += r.Count
		}
		s.mu.Unlock()
		if held != granted {
			t.Fatalf("request %d: the worker holds %d chunks, it was granted %d", i, held, granted)
		}
	}
	if granted == 0 {
		t.Fatal("nothing granted")
	}
}

func checkMasterReplies(t *testing.T, s sched.Scheme, p, n, k int) {
	m, err := New(Config{Scheme: s, Iterations: n, Workers: p})
	if err != nil {
		t.Fatal(err)
	}
	credits := k + 1
	if k < 1 {
		credits = wire.MaxFrame // all a request can ask
	}
	held := make([][]ChunkResult, p)
	var rep wire.Reply
	granted, multi := 0, 0
	for w := 0; granted < n; w = (w + 1) % p {
		rep.Reset()
		args := ChunkArgs{Worker: w, ACP: 1 + w, Prefetch: true, Results: held[w]}
		if err := m.nextBatch(args, credits, &rep); err != nil {
			t.Fatal(err)
		}
		held[w] = held[w][:0]
		if rep.Stop {
			t.Fatalf("stopped with %d of %d iterations granted", granted, n)
		}
		grants := replyChunks(&rep)
		if len(grants) > credits {
			t.Fatalf("reply of %d chunks for %d credits", len(grants), credits)
		}
		iters := 0
		for _, g := range grants {
			if g.Start != granted+iters {
				t.Fatalf("grant starts at %d, %d iterations are out", g.Start, granted+iters)
			}
			iters += g.Size
			for i := g.Start; i < g.End(); i++ {
				held[w] = append(held[w], ChunkResult{Index: i})
			}
		}
		if k := len(grants); k > 1 {
			multi++
			bounded := iters + grants[k-2].Size - grants[k-1].Size
			if limit := sched.BatchLimit(n-granted, n, p); bounded > limit {
				t.Fatalf("reply at %d of %d carries %v = %d iterations, limit %d", granted, n, grants, iters, limit)
			}
		}
		granted += iters
	}
	// The floor keeps fine loops batching: a fixed-chunk scheme over a
	// long loop must still fill an ask of K+1, or take two chunks or more
	// of an unbounded one where the floor holds two.
	chunk, ok := sched.FixedChunk(s, sched.Config{Iterations: n, Workers: p})
	fills := k < 1 && 2*chunk <= n/(32*p) || k > 1 && chunk*k+1 <= n/(32*p)
	if ok && fills && multi == 0 {
		t.Errorf("no reply on this fine loop (chunk %d, N %d) carried more than one chunk", chunk, n)
	}
}

// replyChunks expands a reply's grants into their chunks, in order.
func replyChunks(rep *wire.Reply) []sched.Assignment {
	var out []sched.Assignment
	for i := range rep.Grants {
		out = rep.Run(i).AppendChunks(out)
	}
	return out
}
