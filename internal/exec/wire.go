package exec

import (
	"bufio"
	"io"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// This file is the chunk protocol in wire.Request / wire.Reply terms:
// the accept-and-route endpoint and sniffing connection router shared
// by the flat master and the hierarchical submasters, the server-side
// frame loop, the one slave loop every Link runs (runWindow), and the
// binary-only ledger claim loop that drains into it.

// BatchFunc answers one batched chunk request: deposit args.Results,
// then append up to `credits` grants (or a stop/park verdict) into
// rep. exec.Master.nextBatch and the hierarchical submaster both
// implement it.
type BatchFunc func(args ChunkArgs, credits int, rep *wire.Reply) error

// NextChunk answers a net/rpc call — the gob protocol's one chunk per
// round trip — as the one-grant case of the batch handler.
func (batch BatchFunc) NextChunk(args ChunkArgs, reply *ChunkReply) error {
	var grants [1]sched.Assignment
	rep := wire.Reply{Grants: grants[:0]}
	if err := batch(args, 1, &rep); err != nil {
		return err
	}
	reply.Stop = rep.Stop
	if len(rep.Grants) > 0 {
		reply.Assign = rep.Grants[0]
	}
	return nil
}

// FetchAddFunc answers one ledger claim: atomically reserve n
// scheduling steps and return the first reserved step. worker is the
// claimer's id when the connection has been labeled by a prior
// request, else -1. A nil FetchAddFunc means the ledger is not active
// and fetchadd frames drop the connection.
type FetchAddFunc func(worker, n int) uint64

// ledgerClaimFactor is how many credit windows one ledger claim may
// reserve at most. A master-path reply pays per grant (reply encoding,
// result ingest, requeue bookkeeping) and is capped at the window; a
// one-sided claim is a constant-size frame whose boundaries the table
// fixes at any batch size, so it may amortise the counter round trip
// over several windows. Both are caps on the same share-bounded batch
// (docs/LEDGER.md "Share-bounded batches"): reached on fine loops, never
// on a loop of a few large decreasing chunks.
const ledgerClaimFactor = 4

// Endpoint is the accept-and-route half of a chunk server, shared by
// the flat master and the hierarchical submaster: it accepts worker
// connections, remembers them so Close can unblock their server
// loops, and serves each on its own goroutine. The zero value is ready.
type Endpoint struct {
	mu    sync.Mutex
	conns []net.Conn
	wg    sync.WaitGroup // accept loop + per-connection servers
}

// Serve registers rcvr as the net/rpc "Master" service — the name gob
// slaves call — and accepts connections until l closes, running serve
// (a ServeSniffed call with the owner's handlers) on each. It returns
// immediately.
func (e *Endpoint) Serve(l net.Listener, rcvr any, serve func(*rpc.Server, net.Conn)) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", rcvr); err != nil {
		return err
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, conn)
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				serve(srv, conn)
			}()
		}
	}()
	return nil
}

// Close closes every accepted connection and joins the serving
// goroutines. Close the listener first so the accept loop can exit.
func (e *Endpoint) Close() {
	e.mu.Lock()
	conns := e.conns
	e.conns = nil
	e.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	e.wg.Wait()
}

// sniffedConn replays the bytes a protocol sniffer buffered ahead of
// the gob stream.
type sniffedConn struct {
	io.ReadWriteCloser
	r *bufio.Reader
}

func (c sniffedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// ServeSniffed serves one worker's byte stream — an accepted connection,
// an mp.Stream — routing by its first byte: the binary wire preamble
// (wire.Magic, which no gob stream can open with) goes to the framed
// batch service, everything else to the net/rpc server, or is dropped
// when srv is nil. It returns when the dialogue ends and closes the
// stream. bus (nil allowed) receives wire frame counters; shard labels them.
func ServeSniffed(srv *rpc.Server, conn io.ReadWriteCloser, bus *telemetry.Bus, shard int, batch BatchFunc, fetch FetchAddFunc) {
	defer conn.Close() // after net/rpc's own close on the gob route, harmlessly
	br := bufio.NewReader(conn)
	first, err := br.Peek(1)
	if err != nil {
		return
	}
	if first[0] != wire.Magic && srv != nil {
		srv.ServeConn(sniffedConn{ReadWriteCloser: conn, r: br})
		return
	}
	if err := wire.ConsumePreamble(br); err != nil {
		return
	}
	serveWire(wire.NewServer(conn, br), bus, shard, batch, fetch)
}

// serveWire runs the framed loop for one worker connection until the
// stream closes, a frame fails to parse, or a stop reply to a
// synchronous request completes the dialogue. Three client frame
// shapes interleave on one connection: synchronous and prefetch
// requests (answered with a reply), no-reply deposits (results filed,
// nothing written back), and — when fetch is non-nil — ledger claims
// (answered with a step frame).
func serveWire(c *wire.Conn, bus *telemetry.Bus, shard int, batch BatchFunc, fetch FetchAddFunc) {
	c.SetTelemetry(bus, -1, shard)
	var (
		req     wire.Request
		rep     wire.Reply
		results []ChunkResult
		labeled bool
		worker  = -1
	)
	for {
		kind, n, err := c.ReadClientFrame(&req)
		if err != nil {
			return // closed, cancelled or corrupt: drop the dialogue
		}
		if kind == wire.KindFetchAdd {
			if fetch == nil {
				// No ledger on this master: a claim is unanswerable, and
				// leaving it unanswered would deadlock the worker.
				return
			}
			if err := c.WriteStep(fetch(worker, n)); err != nil {
				return
			}
			continue
		}
		if !labeled {
			c.SetTelemetry(bus, req.Worker, shard)
			labeled = true
			worker = req.Worker
		}
		results = chunkResults(results, &req)
		args := ChunkArgs{
			Worker:      req.Worker,
			ACP:         req.ACP,
			CompSeconds: req.CompSeconds,
			IdleSeconds: req.IdleSeconds,
			Results:     results,
			Prefetch:    req.Prefetch,
			DepositOnly: req.NoReply,
		}
		rep.Reset()
		if req.NoReply {
			// Deposit-only: the client will not read a reply, so an
			// error has nowhere to ride — treat it as terminal.
			if err := batch(args, 0, &rep); err != nil {
				return
			}
			continue
		}
		stop := false
		if err := batch(args, req.Credits, &rep); err != nil {
			// Mirror net/rpc: the error rides back to the caller, the
			// connection stays up for the next request.
			rep.Reset()
			rep.Err = err.Error()
		} else {
			stop = rep.Stop && !req.Prefetch
		}
		if err := c.WriteReply(&rep); err != nil {
			return
		}
		if stop {
			// A stop on a synchronous request is final: the worker had
			// nothing pending, so the dialogue is complete.
			return
		}
	}
}

// chunkResults converts a decoded request's records into the master's
// results, reusing dst: a run passes through as one result. Record data
// aliases the connection's read buffer while the master keeps results
// for the whole run, so it is copied — when there is some.
func chunkResults(dst []ChunkResult, req *wire.Request) []ChunkResult {
	dst = slices.Grow(dst[:0], len(req.Results))[:len(req.Results)]
	for i := range req.Results {
		r := &req.Results[i]
		dst[i] = ChunkResult{Index: r.Index, Count: r.Count}
		if len(r.Data) > 0 {
			dst[i].Data = append([]byte(nil), r.Data...)
		}
		if i < len(req.Spans) {
			dst[i].Span = req.Spans[i]
		}
	}
	return dst
}

// wireRequest fills req from the worker's current state and returns
// the ACP it reported. spans, when non-nil, is the per-record span
// echo.
func (w Worker) wireRequest(req *wire.Request, prefetch bool, credits int, records []wire.Record, spans []uint64, comp, idle float64) int {
	load := 0
	if w.LoadProbe != nil {
		load = w.LoadProbe()
	}
	acpv := w.ACPModel.ACP(w.power(), 1+load)
	*req = wire.Request{
		Worker:      w.ID,
		ACP:         acpv,
		CompSeconds: comp,
		IdleSeconds: idle,
		Prefetch:    prefetch,
		Credits:     credits,
		Results:     records,
		Spans:       spans,
	}
	return acpv
}

// runWindow is the slave loop — the paper's §3.1 "request, compute,
// piggy-back", generalised to a credit window; DESIGN.md §9 states its
// rules. The worker queues up to `window` granted chunks. With prefetch
// off it refills only when the queue is empty, in one synchronous round
// trip that ships every pending result. With prefetch on it also sends a
// refill ahead of need — when the work it still holds is estimated to
// last no longer than one master round trip — and collects the reply
// when the queue has run dry, so the upload and the grant latency hide
// behind computation and a chunk is bound to this worker only when it is
// about to need it. idle is stall time the caller has yet to report (the
// ledger loop's drain enters here with its last claim wait); it rides
// the first request.
func (w Worker) runWindow(l Link, window int, prefetch bool, idle float64) error {
	var (
		req       wire.Request
		rep       wire.Reply
		queue     []sched.Assignment
		spanQueue []uint64      // parallel to queue: one span per grant
		queued    int           // iterations in queue
		pending   []wire.Record // computed, not yet shipped (a run of empty results is one record)
		spans     []uint64      // parallel to pending: one span per record
		comp      float64       // kernel seconds not yet reported
		busy      float64       // kernel seconds so far, over
		ran       int           // this many iterations: the running cost estimate
		lead      float64       // measured master round trip
		mark      time.Time     // kernel time is booked up to here
		sentAt    time.Time     // when the unanswered prefetch left
		inflight  bool          // a prefetch is unanswered
		stopSeen  bool
		echo      bool // the master span-tags its grants: echo the spans back
		lastACP   int
	)
	hold := window // chunks held at most: the queue, plus the one in hand a prefetch overlaps
	if prefetch {
		hold++
	}
	absorb := func() {
		if rep.Stop {
			stopSeen = true
		}
		echo = echo || len(rep.Spans) > 0
		for i, g := range rep.Grants {
			// Without a span from the master the deterministic local id
			// still pairs grant and completion on an in-process bus.
			span := telemetry.SpanID(0, g.Start)
			if i < len(rep.Spans) {
				span = rep.Spans[i]
			}
			queue, spanQueue, queued = append(queue, g), append(spanQueue, span), queued+g.Size
		}
	}
	// fill loads req with everything pending and the worker's state.
	// The codec wants one span per record or none at all.
	fill := func(pre bool, credits int) {
		var echoed []uint64
		if echo {
			echoed = spans
		}
		lastACP = w.wireRequest(&req, pre, credits, pending, echoed, comp, idle)
		pending, spans, comp, idle = pending[:0], spans[:0], 0, 0
	}
	// lap books the kernel time since mark.
	lap := func() {
		now := w.now()
		d := now.Sub(mark).Seconds()
		comp, busy, mark = comp+d, busy+d, now
	}
	for {
		if len(queue) == 0 && inflight {
			// Out of work with a refill on its way: collect it. What is
			// left of the round trip is a stall, and a reply really waited
			// for (a quarter of the lead or more) left too late: its round
			// trip, which no kernel time stretched, raises the lead.
			waitStart := w.now()
			if err := l.Recv(&rep); err != nil {
				return err
			}
			now := w.now()
			wait := now.Sub(waitStart).Seconds()
			if rtt := now.Sub(sentAt).Seconds(); wait > lead/4 && rtt > lead {
				lead = rtt
			}
			idle, inflight = idle+wait, false
			absorb()
			continue
		}
		if len(queue) == 0 {
			// Synchronous (re)fill: ships everything pending and may
			// park at the master until work or the end of the run.
			fill(false, hold)
			sentAt = w.now()
			if err := l.Call(&req, &rep); err != nil {
				return err
			}
			if lead == 0 {
				lead = w.now().Sub(sentAt).Seconds()
			}
			absorb()
			if rep.Stop {
				return nil // the one way out: this request shipped everything
			}
			continue
		}
		a, span := queue[0], spanQueue[0]
		queue, spanQueue, queued = queue[1:], spanQueue[1:], queued-a.Size
		start := w.now()
		mark = start
		for i := a.Start; i < a.End(); {
			next := a.End()
			if prefetch && !inflight && !stopSeen && len(queue) < window {
				// The refill leaves when what is still held — the rest of
				// this chunk and the queue — costs no more than a round
				// trip at this worker's measured rate; until then it looks
				// again after one iteration (nothing measured yet) or half
				// the slack. When even a full window of chunks like this one
				// would not outlast the round trip there is nothing to hide
				// it behind and an early request only comes back smaller:
				// the loop asks when it is dry, for all it may hold.
				if i > a.Start { // mark is this very instant otherwise
					lap()
				}
				next = i + 1
				rtt := lead * float64(ran) / busy // in iterations of this worker's kernel
				switch slack := float64(a.End()-i+queued) - rtt; {
				case ran == 0:
				case float64(hold*a.Size) < rtt:
					next = a.End()
				case slack > 0:
					next = min(i+max(1, int(slack/2)), a.End())
				default:
					// Ships what is computed, this chunk's part and its
					// kernel seconds included; the rest rides the next request.
					sentAt = mark
					fill(true, window-len(queue))
					if err := l.Send(&req); err != nil {
						return err
					}
					inflight, next, mark = true, a.End(), w.now()
				}
			}
			// Send has consumed req, so the records may reuse the buffers
			// it was built from.
			from := len(pending)
			pending = w.run(pending, i, next)
			for range pending[from:] {
				spans = append(spans, span)
			}
			ran, i = ran+next-i, next
		}
		lap()
		w.completed(a, span, lastACP, mark.Sub(start).Seconds())
	}
}

// runWireLedger is the one-sided claim loop: instead of asking the
// master which chunk to run, the worker fetch-adds a batch on the
// master's ledger and computes the chunk boundaries itself from its
// table replica — the master only ever sees an 11-byte claim and
// answers with an 11-byte position, so the grant path carries no policy
// lock, no result copying and no reply encoding. Completions ride
// no-reply deposits written while the next claim is in flight.
//
// The counter moves in the table's units (ledger.Table.Share): one
// scheduling step per chunk on a step table; on the unit table of a
// distributed scheme a chunk is the worker's plan-time ACP A_j of them
// and covers C_j = SC_k·A_j/A iterations. A unit table exists only once
// every worker has reported, so there the first request is the ordinary
// synchronous one — the gather — and its grants are computed like
// claimed chunks.
//
// The loop ends when a claim comes back past the table's end — drained,
// or closed by a re-plan — or when the worker's ACP no longer is the one
// the plan gave it a share for. It then computes what its outstanding
// claims still cover and falls to the dialogue Pipeline selects
// (runWindow), which ships nothing new, absorbs whatever the master
// still has to grant — a re-planned rest of the loop, chunks requeued
// from failed workers — and ends on the master's stop verdict.
func (w Worker) runWireLedger(c *wire.Conn) error {
	var (
		req     wire.Request
		queue   []sched.Assignment
		records []wire.Record
		idle    float64
		lastACP int
	)
	tab := w.LedgerTable()
	if tab == nil {
		var rep wire.Reply
		lastACP = w.wireRequest(&req, false, w.window(), nil, nil, 0, 0)
		if err := c.Call(&req, &rep); err != nil {
			return err
		}
		if rep.Stop {
			return nil
		}
		queue = append(queue, rep.Grants...)
		tab = w.LedgerTable()
	} else {
		// Hello deposit: fetchadd frames carry no worker id, so an empty
		// no-reply request labels the connection (and joins the fleet)
		// before the first one-sided claim. Queued, not flushed: it rides
		// the first claim's segment.
		lastACP = w.wireRequest(&req, true, 0, nil, nil, 0, 0)
		req.NoReply = true
		if err := c.QueueRequest(&req); err != nil {
			return err
		}
	}
	// share is the units one chunk of this worker's takes. It claims
	// while it has one and, on a unit table, reports the ACP the plan
	// gave it that share for.
	share := 0
	if tab != nil {
		share = tab.Share(w.ID)
	}
	onPlan := func() bool { return share > 0 && (!tab.Units() || share == lastACP) }
	// A one-sided claim costs the same few bytes whatever it claims, so
	// wire cost alone would let the batch run as deep as it likes; what
	// bounds it is assignment. Every chunk a claim takes is withheld
	// from the other workers until this one gets to it, so each claim
	// is sized by the table's share rule (Table.SpanBatch) up to
	// maxClaim: four windows (32 chunks at the default) per fetch-add on
	// a fine loop, one chunk at a time while the scheme's chunks are
	// still a large part of what is left.
	maxClaim := ledgerClaimFactor * w.window()
	// run computes one chunk and queues its completion deposit —
	// unflushed, so it rides the next claim's segment. One deposit per
	// chunk (not per claim batch) keeps the master's per-chunk
	// accounting exact: each deposit carries exactly that chunk's
	// results and compute time, so the completion-latency histogram
	// still counts one sample per chunk however deep the claim batch
	// runs. The extra frames share one flush, so the round still costs
	// one write and one read.
	run := func(a sched.Assignment) error {
		start := time.Now()
		records = w.run(records[:0], a.Start, a.End())
		chunkComp := time.Since(start).Seconds()
		w.completed(a, telemetry.SpanID(0, a.Start), lastACP, chunkComp)
		lastACP = w.wireRequest(&req, true, 0, records, nil, chunkComp, idle)
		req.NoReply = true
		idle = 0
		return c.QueueRequest(&req)
	}
	runQueue := func() error {
		for _, a := range queue {
			if err := run(a); err != nil {
				return err
			}
		}
		queue = queue[:0]
		return nil
	}
	// Two claims stay in flight (the ledger's double buffer): while
	// this round computes the chunks of claim k-1 and waits for claim
	// k's answer, claim k+1 is already travelling, so the wire never goes
	// quiet between batches. Answers come back in claim order; starts and
	// sizes are the matching FIFOs of send times (for the RTT metric) and
	// claim sizes in units. A claim is sized where the counter is known to
	// stand at least — the end of the last answered claim plus the claims
	// still travelling; other workers can only have moved it further,
	// onto smaller chunks. The one extra in-flight claim wastes at most
	// maxClaim chunks past the table's end, which the claim-then-check
	// protocol absorbs.
	var (
		starts      [2]time.Time
		sizes       [2]int
		sent, read  int
		known       uint64 // end of the last answered claim
		outstanding int    // units claimed but not yet answered
	)
	// A second claim goes out behind one still travelling only when it
	// needs to. On a step table it always does: the chunks are anybody's.
	// On a unit table the claimants are unequal by construction, and a
	// claim the share rule cut below the cap says chunks are large — the
	// round trip hides behind the chunk being computed without it, while
	// a slow worker holding three of a DTSS loop's eight chunks (one
	// computing, two claimed) is the static split the scheme exists to
	// avoid.
	sendClaim := func() error {
		n := tab.SpanBatch(known+uint64(outstanding), share, maxClaim)
		if sent > read && tab.Units() && n < maxClaim {
			return nil
		}
		n *= share
		starts[sent&1], sizes[sent&1] = time.Now(), n
		outstanding += n
		sent++
		return c.WriteFetchAdd(n)
	}
	// readClaim queues the chunks of the oldest unanswered claim and
	// reports whether all of it lay inside the table.
	readClaim := func() (bool, error) {
		waitStart := time.Now()
		first, err := c.ReadStep()
		if err != nil {
			return false, err
		}
		idle += time.Since(waitStart).Seconds()
		n := sizes[read&1]
		known, outstanding = first+uint64(n), outstanding-n
		if w.Telemetry != nil {
			w.Telemetry.Publish(telemetry.Event{
				Kind: telemetry.LedgerFetch, Worker: w.TelemetryID, Shard: w.TelemetryShard,
				Start: n / share, At: w.Telemetry.Now(),
				Seconds: time.Since(starts[read&1]).Seconds(),
			})
		}
		read++
		for off := 0; off < n; off += share {
			a, ok := tab.Span(first+uint64(off), share)
			if !ok {
				return false, nil // past the end: fully claimed, or closed
			}
			if a.Size > 0 {
				queue = append(queue, a)
			}
		}
		return true, nil
	}
	claiming := onPlan()
	if claiming {
		if err := sendClaim(); err != nil {
			return err
		}
	}
	for claiming {
		// The claim's flush ships the deposits run queued last round in
		// the same segment: a steady-state round costs the worker one
		// write and one read, exactly like the master path's piggybacked
		// request.
		if err := sendClaim(); err != nil {
			return err
		}
		if err := runQueue(); err != nil {
			return err
		}
		inside, err := readClaim()
		if err != nil {
			return err
		}
		claiming = inside && onPlan()
	}
	// What the outstanding claims still cover is this worker's to
	// compute; after a drain that is nothing.
	for read < sent {
		if _, err := readClaim(); err != nil {
			return err
		}
	}
	if err := runQueue(); err != nil {
		return err
	}
	return w.runWindow(c, w.window(), w.Pipeline, idle)
}
