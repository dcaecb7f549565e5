package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/rpc"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// linkScript says how the scripted master departs from steady grants.
// Requests are numbered from 1 in arrival order.
type linkScript struct {
	name       string
	emptyEvery int   // every k-th prefetch is answered empty (0: never)
	stopAt     int   // this request and every later one is answered Stop (0: only when drained)
	errAt      int   // this request is answered with Reply.Err
	dropAt     int   // the link fails while this request's reply is awaited
	wantErr    error // what runWindow must return; nil means a clean Stop
	runs       bool  // a reply grants its equal, contiguous chunks as one run
}

var errLinkDown = errors.New("fake link: connection lost")

var linkScripts = []linkScript{
	{name: "steady"},
	{name: "empty prefetch reply", emptyEvery: 2},
	{name: "stop while results pending", stopAt: 4},
	{name: "reply error", errAt: 5, wantErr: wire.ServerError("scripted failure")},
	{name: "link error in flight", dropAt: 4, wantErr: errLinkDown},
	{name: "run grants", runs: true},
}

// fakeLink is a scripted in-memory master behind the Link interface: no
// sockets, no goroutines, and a clock of its own — the kernel takes cost
// per iteration, a reply lands rtt after its request, nothing else takes
// time. It grants fixed-size chunks of [0, n) one credit each — as runs,
// under a script that says so — keeps the master's ledger of what the
// worker holds, and checks every request against the rules of DESIGN.md
// §9.
type fakeLink struct {
	t         *testing.T
	script    linkScript
	window    int
	prefetch  bool
	n, size   int
	cost, rtt time.Duration

	now       time.Duration      // the scripted clock
	sentAt    time.Duration      // when the last request left: the master's reply stamp
	sentSync  bool               // it was synchronous: its round trip is nobody's idle time
	replyAt   time.Duration      // when the unanswered request's reply lands
	next      int                // first iteration not yet granted
	held      []sched.Assignment // granted, results not yet shipped (grant order)
	arrived   int                // iterations in replies the worker has received
	entered   int                // iterations the kernel has entered
	stopped   bool               // a Stop the worker has received: no more prefetches
	computed  []int              // kernel calls per iteration
	shipped   []int              // result records per iteration
	requests  int
	prefetchs int
	comp      float64     // CompSeconds reported so far
	finalStop bool        // a synchronous request was answered Stop
	reply     *wire.Reply // answer to the unanswered Send, nil if none
	replyErr  error
}

func (f *fakeLink) clock() time.Time { return time.Unix(0, 0).Add(f.now) }

func (f *fakeLink) hold() int {
	if f.prefetch {
		return f.window + 1
	}
	return f.window
}

// due is the time rule, evaluated before the next iteration: the work
// still held lasts no longer than a round trip, the worker has timed at
// least one iteration and — under a window — its queue has room and a
// full window of chunks like the one in hand would outlast the round
// trip.
func (f *fakeLink) due() bool {
	chunk := min(f.size, f.n-f.entered/f.size*f.size)
	queued := (f.arrived+f.size-1)/f.size - f.entered/f.size - 1 // chunks behind the one in hand
	capped := f.window == 0 || queued < f.window && time.Duration(f.hold()*chunk)*f.cost >= f.rtt
	return f.prefetch && !f.stopped && f.entered > 0 && capped &&
		time.Duration(f.arrived-f.entered)*f.cost <= f.rtt
}

// checkDepth holds a request's credits to the depth rule that sizes them
// when no window is set: the first asks for DefaultStealWindow, every
// later one for the chunks that, when its reply lands, leave the worker
// one more round trip of work — the round trip in iterations, less what
// of the held iterations will be left then. That is at least one lead of
// scripted work whenever the request leaves by the time rule or dry, and
// no more than a chunk beyond the need (the last chunk is a short one).
func (f *fakeLink) checkDepth(req *wire.Request) {
	if f.requests == 1 || f.entered == 0 {
		if req.Credits != DefaultStealWindow {
			f.t.Errorf("request %d: %d credits before anything is measured, want %d", f.requests, req.Credits, DefaultStealWindow)
		}
		return
	}
	trip := float64(f.rtt) / float64(f.cost)
	need := trip - max(0, float64(f.arrived-f.entered)-trip)
	const eps = 1e-6
	if covers := float64(req.Credits * f.size); req.Credits < 1 || covers < need-eps ||
		float64((req.Credits-1)*(f.size-1)) > need+eps {
		f.t.Errorf("request %d (prefetch %v, %d iterations held): %d credits, want %.1f iterations' worth of %d-iteration chunks",
			f.requests, req.Prefetch, f.arrived-f.entered, req.Credits, need, f.size)
	}
}

// kernel is the worker's kernel: it counts executions and, before every
// iteration, checks that no refill the time rule wants is still unsent
// (Send checks that none leaves before the rule wants it).
func (f *fakeLink) kernel(i int) []byte {
	f.computed[i]++
	if f.reply == nil && f.replyErr == nil && f.due() {
		f.t.Errorf("iteration %d: %d iterations held and no refill in flight", i, f.arrived-f.entered)
	}
	f.entered++
	f.now += f.cost
	return []byte{byte(i)}
}

func (f *fakeLink) Send(req *wire.Request) error {
	t := f.t
	if f.reply != nil || f.replyErr != nil {
		t.Fatalf("request %d sent while request %d is unanswered", f.requests+1, f.requests)
	}
	if f.finalStop {
		t.Errorf("request after the final Stop")
	}
	f.requests++
	// What the master books as communication — the gap since its last
	// reply less the reported kernel and stall time (Master.account) — is
	// a synchronous round trip, or nothing: never kernel time, wherever
	// in a chunk the request leaves.
	comm, want := (f.now-f.sentAt).Seconds()-req.CompSeconds-req.IdleSeconds, 0.0
	if f.sentSync {
		want = f.rtt.Seconds()
	}
	if f.requests > 1 && math.Abs(comm-want) > 1e-9 {
		t.Errorf("request %d: the master would book %.6fs as communication, want %.6fs", f.requests, comm, want)
	}
	f.sentAt, f.sentSync, f.replyAt = f.now, !req.Prefetch, f.now+f.rtt
	f.comp += req.CompSeconds
	for _, r := range req.Results {
		f.shipped[r.Index]++
		if f.computed[r.Index] == 0 {
			t.Errorf("result %d shipped before it was computed", r.Index)
		}
	}
	for len(f.held) > 0 && f.shipped[f.held[0].End()-1] > 0 {
		f.held = f.held[1:]
	}
	// Credits are the worker's to size (DESIGN.md §9):
	// a synchronous request holds nothing and asks for all it may hold,
	// a prefetch asks for the window less what is still queued behind
	// the chunk in hand.
	wantCredits := f.hold()
	if req.Prefetch {
		f.prefetchs++
		if !f.due() {
			t.Errorf("request %d: prefetch with %d iterations held, before the time rule wants one", f.requests, f.arrived-f.entered)
		}
		wantCredits = f.window + 1 - len(f.held)
	} else if len(f.held) != 0 {
		t.Errorf("request %d: synchronous with %d chunks unshipped", f.requests, len(f.held))
	}
	if f.window == 0 {
		f.checkDepth(req)
	} else if req.Credits != wantCredits {
		t.Errorf("request %d (prefetch %v, %d held): %d credits, want %d",
			f.requests, req.Prefetch, len(f.held), req.Credits, wantCredits)
	}

	rep := &wire.Reply{}
	switch s := f.script; {
	case f.requests == s.dropAt:
		f.replyErr = errLinkDown
		return nil
	case f.requests == s.errAt:
		rep.Err = "scripted failure"
		f.replyErr = wire.ServerError(rep.Err) // what wire.Conn.Recv makes of it
		return nil
	case s.stopAt > 0 && f.requests >= s.stopAt,
		f.next >= f.n && !req.Prefetch:
		rep.Stop = true
		f.finalStop = !req.Prefetch
	case req.Prefetch && s.emptyEvery > 0 && f.prefetchs%s.emptyEvery == 0:
		// nothing to grant right now
	default:
		var run sched.Run
		for c := 0; c < req.Credits && f.next < f.n; c++ {
			a := sched.Assignment{Start: f.next, Size: min(f.size, f.n-f.next)}
			f.next = a.End()
			f.held = append(f.held, a)
			switch {
			case !s.runs:
				rep.Grants = append(rep.Grants, a)
			case run.Count > 0 && a.Size == run.Size:
				run.Count++
			default:
				if run.Count > 0 {
					rep.AddRun(run)
				}
				run = sched.Run{Start: a.Start, Size: a.Size, Count: 1}
			}
		}
		if run.Count > 0 {
			rep.AddRun(run)
		}
	}
	if f.window > 0 && len(f.held) > f.window+1 {
		t.Errorf("request %d: worker holds %d chunks, window is %d", f.requests, len(f.held), f.window)
	}
	f.reply = rep
	return nil
}

func (f *fakeLink) Recv(rep *wire.Reply) error {
	if f.reply == nil && f.replyErr == nil {
		f.t.Fatal("Recv with no request outstanding")
	}
	f.now = max(f.now, f.replyAt)
	err := f.replyErr
	if f.reply != nil {
		*rep = *f.reply
		for _, g := range rep.Grants {
			f.arrived += g.Size
		}
		f.stopped = f.stopped || rep.Stop
	}
	f.reply, f.replyErr = nil, nil
	return err
}

func (f *fakeLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := f.Send(req); err != nil {
		return err
	}
	return f.Recv(rep)
}

func (f *fakeLink) Close() error { return nil }

// TestWindowLoopAgainstScriptedLink drives the one slave loop over
// every window × prefetch × grain × script cell and holds it to the
// rules: each granted iteration computed once and shipped once, never
// more than window+1 chunks held, credits sized as documented, a refill
// in flight exactly from the iteration at which the work still held
// lasts no longer than a round trip, every kernel second reported
// exactly once, and a return only on a Stop to a synchronous request (or
// the link's own error). The grains put the round trip at two and a half
// iterations (the refill leaves mid-chunk, near the end of what is
// held), at ten and a half (it leaves with chunks still queued, or at
// once) and beyond a full window (nothing to hide it behind: under a
// window every request is synchronous). Window 0 is no window: each ask
// is sized by the depth rule (checkDepth), so even the coarsest grain
// prefetches. The memory-link cells enter through Worker.RunLink, which
// picks the window by the link's nature: only the gob link, which grants
// one chunk per call, trades the depth rule for DefaultStealWindow, so
// an unset window over any other link — the memory link's case — stays
// the depth rule checkDepth holds it to.
func TestWindowLoopAgainstScriptedLink(t *testing.T) {
	const cost = time.Millisecond
	cell := func(name string, window int, prefetch, viaRunLink bool, script linkScript) {
		t.Run(name, func(t *testing.T) {
			for _, rtt := range []time.Duration{cost * 5 / 2, cost * 21 / 2, cost * 1000} {
				t.Run(fmt.Sprintf("rtt=%v", rtt), func(t *testing.T) {
					checkWindowLoop(t, script, window, prefetch, viaRunLink, cost, rtt)
				})
			}
		})
	}
	for _, window := range []int{0, 1, 2, 4, 8} {
		for _, prefetch := range []bool{false, true} {
			for _, script := range linkScripts {
				cell(fmt.Sprintf("w%d/prefetch=%v/%s", window, prefetch, script.name), window, prefetch, false, script)
			}
		}
	}
	for _, prefetch := range []bool{false, true} {
		for _, script := range linkScripts {
			cell(fmt.Sprintf("memory-link/w0/prefetch=%v/%s", prefetch, script.name), 0, prefetch, true, script)
		}
	}
}

func checkWindowLoop(t *testing.T, script linkScript, window int, prefetch, viaRunLink bool, cost, rtt time.Duration) {
	const n, size = 103, 4
	f := &fakeLink{
		t: t, script: script, window: window, prefetch: prefetch, cost: cost, rtt: rtt,
		n: n, size: size, computed: make([]int, n), shipped: make([]int, n),
	}
	w := Worker{ID: 3, Kernel: f.kernel, clock: f.clock, Window: window, Pipeline: prefetch}
	var err error
	if viaRunLink {
		err = w.RunLink(context.Background(), f)
	} else {
		err = w.runWindow(f, window, prefetch, 0)
	}
	wantErr := script.wantErr
	if f.requests < max(script.errAt, script.dropAt) {
		wantErr = nil // the run was over in fewer requests
	}
	if err != wantErr {
		t.Fatalf("runWindow returned %v, want %v", err, wantErr)
	}
	if err == nil && !f.finalStop {
		t.Error("returned without a Stop to a synchronous request")
	}
	if fine := window > 0 && rtt > time.Duration((window+1)*size)*cost; fine && f.prefetchs > 0 {
		t.Errorf("%d prefetches on a loop too fine to hide a round trip behind", f.prefetchs)
	} else if prefetch && !fine && f.prefetchs == 0 {
		t.Error("no prefetch on a loop whose window outlasts the round trip")
	}
	if want := (time.Duration(f.entered) * cost).Seconds(); err == nil && math.Abs(f.comp-want) > 1e-9 {
		t.Errorf("requests reported %.6fs of kernel time, the kernel ran %.6fs", f.comp, want)
	}
	for i := 0; i < n; i++ {
		granted := i < f.next
		switch {
		case f.computed[i] > 1 || f.shipped[i] > 1:
			t.Fatalf("iteration %d computed %d times, shipped %d times", i, f.computed[i], f.shipped[i])
		case !granted && f.computed[i] > 0:
			t.Fatalf("iteration %d computed but never granted", i)
		case err == nil && granted && (f.computed[i] != 1 || f.shipped[i] != 1):
			t.Fatalf("granted iteration %d computed %d times, shipped %d times", i, f.computed[i], f.shipped[i])
		}
	}
	if err == nil && script.stopAt == 0 && f.next != n {
		t.Errorf("run ended with %d of %d iterations granted", f.next, n)
	}
}

// argsRecorder is a one-grant-per-call master behind both server
// adapters: it records every ChunkArgs it is handed (timing masked)
// and grants chunks of three until [0, n) is out — then empty replies
// to prefetches and Stop to synchronous requests.
type argsRecorder struct {
	mu   sync.Mutex
	next int
	n    int
	seen []ChunkArgs
}

func (r *argsRecorder) forget() {
	r.mu.Lock()
	r.seen = r.seen[:0]
	r.mu.Unlock()
}

func (r *argsRecorder) batch(args ChunkArgs, _ int, rep *wire.Reply) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	args.Results = append([]ChunkResult(nil), args.Results...)
	args.CompSeconds, args.IdleSeconds = 0, 0
	r.seen = append(r.seen, args)
	switch {
	case r.next < r.n:
		a := sched.Assignment{Start: r.next, Size: min(3, r.n-r.next)}
		r.next = a.End()
		rep.Grants = append(rep.Grants, a)
	case !args.Prefetch:
		rep.Stop = true
	}
	return nil
}

func (r *argsRecorder) NextChunk(args ChunkArgs, reply *ChunkReply) error {
	return batchFunc(r.batch).NextChunk(args, reply)
}

// wireLink is the binary link over client, its dialogue served from
// server by serveSniffed as Master.Serve and Master.ServeConn would.
func wireLink(t *testing.T, client, server io.ReadWriteCloser, srv *rpc.Server, rec *argsRecorder) Link {
	t.Helper()
	go serveSniffed(srv, server, nil, 0, rec.batch)
	t.Cleanup(func() { client.Close() })
	c, err := wire.NewClient(client)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// dialogueLinks are the ways a slave's dialogue can travel: either codec
// over a socket-like pipe, and the binary codec over a rank pair of each
// message-passing transport.
var dialogueLinks = []struct {
	name string
	open func(t *testing.T, rec *argsRecorder) Link
}{
	{"gob", func(t *testing.T, rec *argsRecorder) Link {
		srv := rpc.NewServer()
		if err := srv.RegisterName("Master", rec); err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		go serveSniffed(srv, server, nil, 0, rec.batch)
		t.Cleanup(func() { client.Close() })
		return newGobLink(client)
	}},
	{"wire", func(t *testing.T, rec *argsRecorder) Link {
		client, server := net.Pipe()
		return wireLink(t, client, server, rpc.NewServer(), rec)
	}},
	{"wire over an in-process world", func(t *testing.T, rec *argsRecorder) Link {
		world, err := mp.NewWorld(2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { world[0].Close() })
		return wireLink(t, mp.Stream(world[1], 0), mp.Stream(world[0], 1), nil, rec)
	}},
	{"memory", func(t *testing.T, rec *argsRecorder) Link {
		return &memLink{batch: rec.batch}
	}},
	{"wire over a TCP star", func(t *testing.T, rec *argsRecorder) Link {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		master, err := mp.ListenTCP(ln, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { master.Close() })
		slave, err := mp.DialTCP(ln.Addr().String(), 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		return wireLink(t, mp.Stream(slave, 0), mp.Stream(master, 1), nil, rec)
	}},
}

// TestLinksCarryTheSameDialogue is the codec-equivalence property at
// the link seam: the same loop over the gob link, the wire link, the
// wire link over a message-passing rank pair and the memory link must put
// the identical ChunkArgs sequence in front of the server — same flags, same results
// in the same requests. When a refill leaves is a matter of time, so
// every worker reads a clock that moves one tick per reading — four at
// the second, which ends the round trip the lead is measured on: the same
// loop then sees the same times whatever the link costs, and a round trip
// worth a chunk or so.
func TestLinksCarryTheSameDialogue(t *testing.T) {
	for _, prefetch := range []bool{false, true} {
		var first []ChunkArgs
		for i, link := range dialogueLinks {
			rec := &argsRecorder{n: 40}
			var reads, ticks time.Duration
			w := Worker{ID: 1, Kernel: intKernel, VirtualPower: 2, clock: func() time.Time {
				if reads++; reads == 2 {
					ticks += 3 * time.Millisecond
				}
				ticks += time.Millisecond
				return time.Unix(0, 0).Add(ticks)
			}}
			if err := w.runWindow(link.open(t, rec), 1, prefetch, 0); err != nil {
				t.Fatalf("%s prefetch=%v: %v", link.name, prefetch, err)
			}
			if i == 0 {
				first = rec.seen
				continue
			}
			if !reflect.DeepEqual(first, rec.seen) {
				t.Errorf("prefetch=%v: the server saw different dialogues\n %s: %+v\n %s: %+v",
					prefetch, dialogueLinks[0].name, first, link.name, rec.seen)
			}
		}
		if len(first) < 14 {
			t.Fatalf("prefetch=%v: only %d requests recorded", prefetch, len(first))
		}
		if prefetch && !slices.ContainsFunc(first, func(a ChunkArgs) bool { return a.Prefetch }) {
			t.Error("the pipelined dialogue holds no prefetch")
		}
	}
}

// TestGobLinkCycleAllocations bounds the gob link's own garbage: a
// Send/Recv cycle reuses its args, reply and completion channel, so it
// must allocate less than the bare rpc.Client.Call of the same payload
// it replaced (which boxes the args and makes a Call and a channel per
// round trip). Both sides of the comparison include net/rpc's and
// gob's own allocations on client and server.
func TestGobLinkCycleAllocations(t *testing.T) {
	payload := []wire.Record{{Index: 1, Data: make([]byte, 64)}, {Index: 2, Data: make([]byte, 64)}}
	serve := func() (io.ReadWriteCloser, *argsRecorder) {
		rec := &argsRecorder{n: 1 << 30}
		srv := rpc.NewServer()
		if err := srv.RegisterName("Master", rec); err != nil {
			t.Fatal(err)
		}
		client, server := net.Pipe()
		go srv.ServeConn(server)
		t.Cleanup(func() { client.Close() })
		return client, rec
	}

	conn, rec := serve()
	link := newGobLink(conn)
	req := wire.Request{Worker: 1, ACP: 10, Prefetch: true, Credits: 1, Results: payload}
	var rep wire.Reply
	cycle := func() {
		if err := link.Send(&req); err != nil {
			panic(err)
		}
		if err := link.Recv(&rep); err != nil || len(rep.Grants) != 1 {
			panic(fmt.Sprint("gob link cycle: ", err, rep))
		}
	}
	cycle() // gob ships type descriptors on first use
	linked := testing.AllocsPerRun(200, func() { cycle(); rec.forget() })

	conn, rec = serve()
	bare := rpc.NewClient(conn)
	args := ChunkArgs{Worker: 1, ACP: 10, Prefetch: true, Results: []ChunkResult{
		{Index: 1, Data: payload[0].Data}, {Index: 2, Data: payload[1].Data}}}
	call := func() {
		var reply ChunkReply
		if err := bare.Call("Master.NextChunk", args, &reply); err != nil {
			panic(err)
		}
	}
	call()
	raw := testing.AllocsPerRun(200, func() { call(); rec.forget() })

	if linked >= raw {
		t.Fatalf("gob link Send/Recv allocates %.1f times per cycle, a bare rpc call %.1f", linked, raw)
	}
	t.Logf("allocations per round trip: gob link %.1f, bare rpc.Client.Call %.1f", linked, raw)
}

// TestMemLinkClose pins how a memory link ends. A synchronous request
// parked in the master — a distributed scheme's gather, waiting for a
// second worker that never comes — is released by the master's Cancel
// and answered Stop; after Close every Send and Recv fails, and every
// Send fails once the done channel Worker.RunLink wraps it with is closed.
func TestMemLinkClose(t *testing.T) {
	m, err := NewMaster(sched.DTSSScheme{}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Link()
	answered := make(chan error, 1)
	var rep wire.Reply
	go func() { answered <- l.Call(&wire.Request{Worker: 0, ACP: 10, Credits: 1}, &rep) }()
	waitParked(t, m, 1)
	select {
	case err := <-answered:
		t.Fatalf("a request parked in the gather returned (%v) before Cancel", err)
	default:
	}
	m.Cancel(nil)
	if err := <-answered; err != nil || !rep.Stop {
		t.Fatalf("the parked request got %+v, %v; want Stop", rep, err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(&wire.Request{Worker: 0, ACP: 10, Credits: 1}); err == nil {
		t.Error("Send after Close succeeded")
	}
	if err := l.Recv(&rep); err == nil {
		t.Error("Recv after Close succeeded")
	}

	done := make(chan struct{})
	m2, err := NewMaster(sched.TSSScheme{}, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	l2 := ctxLink{m2.Link(), done}
	if err := l2.Call(&wire.Request{Worker: 0, ACP: 10, Credits: 1}, &rep); err != nil || len(rep.Grants) == 0 {
		t.Fatalf("first call: %+v, %v", rep, err)
	}
	close(done)
	if err := l2.Send(&wire.Request{Worker: 0, ACP: 10, Credits: 1}); err == nil {
		t.Error("Send after done succeeded")
	}
}

// TestZeroCreditPrefetchIsADelivery pins the one request that asks for
// nothing, over the memory link and the binary codec over TCP: a
// prefetch with no credits delivers its results — the master retires
// the chunks they complete — and is granted nothing, without a prefetch
// miss, and the delivery that completes the loop is answered Stop. A
// plain request asking for no credits still gets a chunk.
func TestZeroCreditPrefetchIsADelivery(t *testing.T) {
	for _, reach := range []string{"memory", "tcp"} {
		t.Run(reach, func(t *testing.T) {
			bus := telemetry.NewBus(256)
			defer bus.Close()
			log := &eventLog{}
			bus.Subscribe(log)
			m, err := New(Config{Scheme: sched.CSSScheme{K: 4}, Iterations: 8, Workers: 1, Telemetry: bus})
			if err != nil {
				t.Fatal(err)
			}
			l := m.Link()
			if reach == "tcp" {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer m.Shutdown(ln)
				if err := m.Serve(ln); err != nil {
					t.Fatal(err)
				}
				if l, err = Dial(context.Background(), ln.Addr().String(), TransportBinary); err != nil {
					t.Fatal(err)
				}
			}
			defer l.Close()
			var rep wire.Reply
			for i, c := range []struct {
				prefetch bool
				done     int // iterations the request delivers, from 4*(i/2)
				grant    bool
				stop     bool
			}{
				{grant: true},
				{prefetch: true, done: 4},
				{grant: true},
				{prefetch: true, done: 4, stop: true},
			} {
				req := wire.Request{Worker: 0, ACP: 1, Prefetch: c.prefetch}
				if c.done > 0 {
					req.Results = []wire.Record{{Index: 4 * (i / 2), Count: c.done}}
				}
				if err := l.Call(&req, &rep); err != nil {
					t.Fatalf("request %d: %v", i, err)
				}
				if got := len(rep.Grants) == 1; got != c.grant || rep.Stop != c.stop || len(rep.Grants) > 1 {
					t.Fatalf("request %d (prefetch %v, 0 credits): reply %+v", i, c.prefetch, rep)
				}
				if c.prefetch && len(m.Outstanding()) != 0 {
					t.Fatalf("request %d: the delivered chunk is still outstanding: %v", i, m.Outstanding())
				}
			}
			if _, rep, err := m.Wait(); err != nil || rep.Iterations != 8 || rep.Chunks != 2 {
				t.Fatalf("run: %+v, %v", rep, err)
			}
			bus.Flush()
			for _, e := range log.drain() {
				if e.Kind == telemetry.PrefetchMissed {
					t.Fatal("a delivery was published as a prefetch miss")
				}
			}
		})
	}
}

// TestWorkerShipsARunPerStretch pins the shape of what the worker ships
// for a batch of chunks whose kernel returns no bytes: one run record
// per contiguous stretch of the batch when it echoes no spans, and one
// per chunk, each with that chunk's span, when it does — the span block
// holds one span per record.
func TestWorkerShipsARunPerStretch(t *testing.T) {
	// two stretches: [0, 12) and [20, 28)
	grants := []sched.Assignment{{Start: 0, Size: 4}, {Start: 4, Size: 4}, {Start: 8, Size: 4}, {Start: 20, Size: 4}, {Start: 24, Size: 4}}
	for _, c := range []struct {
		name  string
		spans []uint64
		runs  bool // the same chunks granted as two runs
		want  []ChunkResult
	}{
		{"no span echo", nil, false, []ChunkResult{{Index: 0, Count: 12}, {Index: 20, Count: 8}}},
		{"run grants", nil, true, []ChunkResult{{Index: 0, Count: 12}, {Index: 20, Count: 8}}},
		{"spans echoed", []uint64{11, 12, 13, 14, 15}, false, []ChunkResult{
			{Index: 0, Count: 4, Span: 11}, {Index: 4, Count: 4, Span: 12}, {Index: 8, Count: 4, Span: 13},
			{Index: 20, Count: 4, Span: 14}, {Index: 24, Count: 4, Span: 15},
		}},
	} {
		var shipped [][]ChunkResult
		l := &memLink{batch: func(args ChunkArgs, _ int, rep *wire.Reply) error {
			shipped = append(shipped, slices.Clone(args.Results))
			switch {
			case len(shipped) > 1:
				rep.Stop = true
			case c.runs:
				rep.AddRun(sched.Run{Start: 0, Size: 4, Count: 3})
				rep.AddRun(sched.Run{Start: 20, Size: 4, Count: 2})
			default:
				rep.Grants, rep.Spans = append(rep.Grants, grants...), append(rep.Spans, c.spans...)
			}
			return nil
		}}
		w := Worker{Kernel: func(int) []byte { return nil }}
		if err := w.runWindow(l, 8, false, 0); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if len(shipped) != 2 || !reflect.DeepEqual(shipped[1], c.want) {
			t.Errorf("%s: the requests shipped %+v, want the batch as %+v", c.name, shipped, c.want)
		}
	}
}

// TestWorkerRunsARunChunkByChunkOnABus: a worker with a telemetry bus
// whose master grants runs (the master has no bus) still closes every
// chunk on its own — one ChunkCompleted with the chunk's range — while
// what it ships is one run record per contiguous stretch.
func TestWorkerRunsARunChunkByChunkOnABus(t *testing.T) {
	var shipped [][]ChunkResult
	l := &memLink{batch: func(args ChunkArgs, _ int, rep *wire.Reply) error {
		shipped = append(shipped, slices.Clone(args.Results))
		if len(shipped) > 1 {
			rep.Stop = true
			return nil
		}
		rep.AddRun(sched.Run{Start: 0, Size: 4, Count: 3})
		rep.AddRun(sched.Run{Start: 12, Size: 2, Count: 1})
		rep.AddRun(sched.Run{Start: 20, Size: 4, Count: 2})
		return nil
	}}
	bus := telemetry.NewBus(0)
	col := &completionCollector{}
	bus.Subscribe(col)
	w := Worker{Kernel: func(int) []byte { return nil }, Telemetry: bus}
	if err := w.runWindow(l, 8, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	want := []sched.Assignment{{Start: 0, Size: 4}, {Start: 4, Size: 4}, {Start: 8, Size: 4}, {Start: 12, Size: 2}, {Start: 20, Size: 4}, {Start: 24, Size: 4}}
	if !slices.Equal(col.chunks, want) {
		t.Errorf("the worker closed chunks %v, want %v", col.chunks, want)
	}
	if records := []ChunkResult{{Index: 0, Count: 14}, {Index: 20, Count: 8}}; len(shipped) != 2 || !reflect.DeepEqual(shipped[1], records) {
		t.Errorf("the requests shipped %+v, want the batch as %+v", shipped, records)
	}
}

// completionCollector records every ChunkCompleted event's range.
type completionCollector struct{ chunks []sched.Assignment }

func (c *completionCollector) BeginRun(telemetry.RunMeta) {}
func (c *completionCollector) Close() error               { return nil }
func (c *completionCollector) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.ChunkCompleted {
		c.chunks = append(c.chunks, sched.Assignment{Start: e.Start, Size: e.Size})
	}
}

// TestAskReadsTheChunkThatClosedTheStretch: a stretch of runs of two
// sizes — two chunks of 4, then one of 2 — runs in one step without
// prefetch, and the worker's next ask is sized by the chunk that closed
// it, the 2-iteration one: with a round trip worth 8 iterations of its
// kernel (scripted clock), 4 credits, not the 2 that chunks of 4 would
// ask.
func TestAskReadsTheChunkThatClosedTheStretch(t *testing.T) {
	const cost, trip = time.Millisecond, 8 * time.Millisecond
	now := time.Unix(0, 0)
	var credits []int
	l := &memLink{batch: func(args ChunkArgs, n int, rep *wire.Reply) error {
		now = now.Add(trip)
		if credits = append(credits, n); len(credits) > 1 {
			rep.Stop = true
			return nil
		}
		rep.AddRun(sched.Run{Start: 0, Size: 4, Count: 2})
		rep.AddRun(sched.Run{Start: 8, Size: 2, Count: 1})
		return nil
	}}
	w := Worker{Kernel: func(int) []byte { now = now.Add(cost); return nil }, clock: func() time.Time { return now }}
	if err := w.runWindow(l, 0, false, 0); err != nil {
		t.Fatal(err)
	}
	if want := []int{DefaultStealWindow, int(trip / cost / 2)}; !slices.Equal(credits, want) {
		t.Errorf("the worker asked for %v credits, want %v", credits, want)
	}
}
