package exec

import (
	"bufio"
	"io"
	"math"
	"net/rpc"
	"slices"
	"time"

	"loopsched/internal/dispense"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// This file is the chunk protocol in wire.Request / wire.Reply terms:
// the master's sniffing connection router, the server-side frame loop,
// and the one slave loop every Link runs (runWindow).

// batchFunc answers one batched chunk request: deposit args.Results,
// then append up to `credits` grants (or a stop/park verdict) into
// rep. Master.nextBatch implements it.
type batchFunc func(args ChunkArgs, credits int, rep *wire.Reply) error

// NextChunk answers a net/rpc call — the gob protocol's one chunk per
// round trip — as the one-grant case of the batch handler.
func (batch batchFunc) NextChunk(args ChunkArgs, reply *ChunkReply) error {
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

// sniffedConn replays the bytes a protocol sniffer buffered ahead of
// the gob stream.
type sniffedConn struct {
	io.ReadWriteCloser
	r *bufio.Reader
}

func (c sniffedConn) Read(p []byte) (int, error) { return c.r.Read(p) }

// serveSniffed serves one worker's byte stream — an accepted connection,
// an mp.Stream — routing by its first byte: the binary wire preamble
// (wire.Magic, which no gob stream can open with) goes to the framed
// batch service, everything else to the net/rpc server, or is dropped
// when srv is nil. It returns when the dialogue ends and closes the
// stream. bus (nil allowed) receives wire frame counters; shard labels them.
func serveSniffed(srv *rpc.Server, conn io.ReadWriteCloser, bus *telemetry.Bus, shard int, batch batchFunc) {
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
	serveWire(wire.NewServer(conn, br), bus, shard, batch)
}

// serveWire runs the framed loop for one worker connection until the
// stream closes, a frame fails to parse, or a stop reply to a
// synchronous request completes the dialogue. Every frame the master
// serves is a request it answers with a reply: the codec's FetchAdd
// frame asks for an answer no master gives, so it drops the dialogue —
// left unanswered, the claim would deadlock its worker.
func serveWire(c *wire.Conn, bus *telemetry.Bus, shard int, batch batchFunc) {
	c.SetTelemetry(bus, -1, shard)
	var (
		req     wire.Request
		rep     wire.Reply
		results []ChunkResult
		labeled bool
	)
	for {
		kind, _, err := c.ReadClientFrame(&req)
		if err != nil || kind != wire.KindRequest {
			return // closed, cancelled, corrupt or unanswerable: drop the dialogue
		}
		if !labeled {
			c.SetTelemetry(bus, req.Worker, shard)
			labeled = true
		}
		results = chunkResults(results, &req)
		args := ChunkArgs{
			Worker:      req.Worker,
			ACP:         req.ACP,
			CompSeconds: req.CompSeconds,
			IdleSeconds: req.IdleSeconds,
			Results:     results,
			Prefetch:    req.Prefetch,
		}
		rep.Reset()
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

// DefaultStealWindow is what Ask answers while nothing is measured: a
// worker with no window set asks for this many chunks before it has
// timed a round trip to size its asks by, and on every request over the
// gob link, which grants one chunk per call (DESIGN.md §9). It is also a
// JobState's credit window when none is set.
const DefaultStealWindow = 8

// Ask is the depth rule (DESIGN.md §9, "how deep a worker asks"): the
// chunks a refill asks for when no window caps it. trip is what one
// round trip is worth in iterations at the worker's measured rate, held
// the iterations it still holds as the refill leaves, and size the
// iterations in the chunk it last started (at least 1). The answer lands
// one round trip from now and must keep the worker busy for one more:
// trip, less what of held will be left by then, in chunks of size — at
// least 1. The ask is the worker's whole bound on a reply; the master's is
// the share (sched.BatchLimit), so no chunk count caps either. The only
// clamp is what a frame can carry, wire.MaxFrame, which has no
// scheduling meaning. A trip that is not positive means nothing is
// measured yet: the answer is DefaultStealWindow.
func Ask(trip, held float64, size int) int {
	if !(trip > 0) {
		return DefaultStealWindow
	}
	need := trip - max(0, held-trip)
	return int(min(max(1, math.Ceil(need/float64(size))), wire.MaxFrame))
}

// sampleSeconds is the least kernel time between two clock reads that
// only refresh the worker's rate: fifty times a read's cost — time.Now
// takes about 90 ns on the reference box — so such a read costs at most
// 2 % of the work it times.
const sampleSeconds = 50 * 100e-9

// runWindow is the slave loop — the paper's §3.1 "request, compute,
// piggy-back"; DESIGN.md §9 states its rules. A refill goes out
// synchronously when the queue is empty and, with prefetch on, ahead of
// need: when the work still held is estimated to last no longer than one
// master round trip (the lead). Its answer is collected when the queue
// has run dry, so the round trip hides behind computation and a chunk
// is bound to this worker only when it is about to need it. A window ≥ 1
// caps the chunks held and sizes every ask; below 1 each ask covers what
// will outlast the next round trip (ask). idle is stall time the caller
// has yet to report; it rides the first request.
//
// The clock is read where a request needs it — as it is sent, and
// around the wait for its answer — and those reads book the kernel
// time. Between requests it is read only where the prefetch test wants a
// fresh rate (stale), and, with a telemetry bus, once as each chunk
// closes, so that ChunkCompleted carries the chunk's own seconds.
func (w Worker) runWindow(l Link, window int, prefetch bool, idle float64) error {
	var (
		req      wire.Request
		rep      wire.Reply    // the batch: only the next Recv, once its grants have run, writes it
		head     int           // rep.Grants[head:] is the queue
		queued   int           // iterations in the queue, past the stretch in hand
		chunks   int           // chunks in the queue, the stretch in hand's included
		pending  []wire.Record // computed, not yet shipped (a run of empty results is one record)
		spans    []uint64      // parallel to pending: one span per record
		comp     float64       // kernel seconds not yet reported
		busy     float64       // kernel seconds booked so far, over
		ran      int           // this many iterations: the running cost estimate
		since    int           // iterations run since mark, not yet booked
		secs     float64       // kernel seconds booked to the chunk in hand: its ChunkCompleted reading
		size     int           // iterations in the chunk last started: what a grant is expected to hold
		lead     float64       // the round trip the time rule reads: the first measured, raised by late replies
		rtt      float64       // the latest round trip measured: what an ask covers
		mark     time.Time     // kernel time is booked up to here
		sentAt   time.Time     // when the unanswered refill left
		inflight bool          // a refill is unanswered
		stopSeen bool
		echo     bool // the master span-tags its grants: echo the spans back
		lastACP  int
	)
	// What the loop reads per chunk, read once: a value-receiver call per
	// chunk would copy the whole Worker.
	clock, body, kernel, scale, bus := w.clock, w.Body, w.Kernel, w.WorkScale, w.Telemetry
	// A request ships a record per stretch computed since the last one:
	// the tail of the batch a prefetch left in hand and the next batch's
	// head, and a few more where a delivery came back split.
	pending, spans = make([]wire.Record, 0, 4), make([]uint64, 0, 4)
	if clock == nil {
		clock = time.Now
	}
	hold := window // chunks held at most: the queue, plus the one in hand a prefetch overlaps
	if prefetch {
		hold++
	}
	// book books the time from mark to now as the kernel time of the
	// iterations run since, and moves mark there.
	book := func(now time.Time) {
		d := now.Sub(mark).Seconds()
		comp, busy, secs, mark = comp+d, busy+d, secs+d, now
		ran, since = ran+since, 0
	}
	// stale reports whether the rate wants a fresh reading: nothing is
	// measured yet, or the iterations run since the last reading are worth
	// sampleSeconds at that rate.
	stale := func() bool {
		return since > 0 && (busy == 0 || float64(since)*busy >= sampleSeconds*float64(ran))
	}
	// ask sizes a refill sent while held iterations are still to run:
	// under a window, room, what the cap leaves; otherwise the depth rule
	// over the latest round trip in iterations at the running cost.
	ask := func(held, room int) int {
		if window >= 1 {
			return room
		}
		trip := 0.0 // nothing measured yet
		if rtt > 0 && ran > 0 {
			trip = rtt * float64(ran) / busy
		}
		return Ask(trip, float64(held), size)
	}
	// send sends a refill of ask(held, room) chunks, shipping everything
	// pending; the codec wants one span per record or none at all.
	send := func(pre bool, held, room int) error {
		load := 0
		if w.LoadProbe != nil {
			load = w.LoadProbe()
		}
		lastACP = w.ACPModel.ACP(w.power(), 1+load)
		req = wire.Request{Worker: w.ID, ACP: lastACP, CompSeconds: comp, IdleSeconds: idle,
			Prefetch: pre, Credits: ask(held, room), Results: pending}
		if echo {
			req.Spans = spans
		}
		pending, spans, comp, idle = pending[:0], spans[:0], 0, 0
		return l.Send(&req)
	}
	for {
		if head == len(rep.Grants) {
			// Out of work. With nothing in flight the refill is synchronous
			// and may park at the master; its round trip is communication.
			// Of a prefetch's round trip what is left is a stall, and an
			// answer really waited for (a quarter of the lead or more) left
			// too late: its round trip is measured, and raises the lead.
			// Kernel time not booked yet ends here.
			sync := !inflight
			waitStart := clock()
			if since > 0 {
				book(waitStart)
			}
			if sync {
				sentAt = waitStart
				if err := send(false, 0, hold); err != nil {
					return err
				}
			}
			if err := l.Recv(&rep); err != nil {
				return err
			}
			now := clock()
			switch r, wait := now.Sub(sentAt).Seconds(), now.Sub(waitStart).Seconds(); {
			case sync:
				rtt = r
				if lead == 0 {
					lead = r
				}
			case wait > lead/4:
				rtt, lead = r, max(lead, r)
				fallthrough
			default:
				idle += wait
			}
			mark = now // the batch's first chunk opens as it arrives
			inflight = false
			stopSeen, echo = stopSeen || rep.Stop, echo || len(rep.Spans) > 0
			for _, g := range rep.Grants {
				queued += g.Size
			}
			head, chunks = 0, rep.Chunks()
			if sync && rep.Stop {
				return nil // the one way out: this request shipped everything
			}
			continue
		}
		// A stretch (the grants that continue one another; one chunk on a
		// bus or a span echo) runs as one range save where the prefetch
		// test, which reads the chunk in hand (a), cuts it. A grant is a run
		// of equal chunks (r): the chunk in hand and the chunks behind it
		// are arithmetic on the run.
		queue, n := rep.Grants[head:], 1
		lo, end := queue[0].Start, queue[0].End()
		r, c := rep.Run(head), 0 // the run holding iteration i, grant c of the queue
		switch {
		case bus == nil && !echo:
			n = dispense.Stretch(queue)
			end = queue[n-1].End()
		case r.Count > 1: // one chunk of the run: the rest stays queued
			end = lo + r.Size
		}
		rest := chunks - r.Count // chunks queued behind run r
		queued, secs = queued-(end-lo), 0
		// Without a span from the master the deterministic local id still
		// pairs grant and completion on an in-process bus.
		span := telemetry.SpanID(0, lo)
		if head < len(rep.Spans) {
			span = rep.Spans[head]
		}
		for i := lo; i < end; {
			for r.End() <= i {
				c++
				r = rep.Run(head + c)
				rest -= r.Count
			}
			k := (i - r.Start) / r.Size
			a, behind, next := r.Chunk(k), rest+r.Count-k-1, end
			size = a.Size
			switch {
			case !prefetch || inflight || stopSeen:
			case window >= 1 && behind >= window:
				next = a.End() // the queue has room once this chunk closes
			default:
				// The refill leaves when what is still held — the rest of
				// the stretch and the queue — costs no more than the lead at
				// this worker's measured rate; until then it looks again
				// after one iteration (nothing measured yet) or half the
				// slack. Under a window that a full window of chunks like
				// this one would not outlast, an early request would only
				// come back smaller: the loop asks when dry, for all it may.
				if stale() {
					book(clock())
				}
				next = i + 1
				trip := lead * float64(ran) / busy // in iterations of this worker's kernel
				held := end - i + queued
				switch slack := float64(held) - trip; {
				case ran == 0:
				case window >= 1 && float64(hold*a.Size) < trip:
					next = a.End()
				case slack > 0:
					next = min(i+max(1, int(slack/2)), end)
				default:
					// A request ships what is computed, this stretch's part
					// and its kernel seconds included; the rest rides the
					// next one. The send itself is nobody's kernel time.
					book(clock())
					sentAt = mark
					if err := send(true, held, window-behind); err != nil {
						return err
					}
					inflight, next, mark = true, end, clock()
				}
			}
			// Send has consumed req, so the records may reuse the buffers
			// it was built from. Under an echo a run continues only its
			// own chunk's record.
			var err error
			if pending, err = Compute(body, kernel, scale, pending, i, next, !echo || i > lo); err != nil {
				return err
			}
			for range pending[len(spans):] {
				spans = append(spans, span)
			}
			since, i = since+next-i, next
		}
		for ; c < n-1; c++ { // the stretch may have run to its end in one step
			r = rep.Run(head + c + 1)
			rest -= r.Count
		}
		a := sched.Assignment{Start: end - r.Size, Size: r.Size} // the chunk that closed the stretch
		chunks, size = rest+r.Count-(end-r.Start)/r.Size, a.Size
		if g := queue[0]; end < g.End() {
			rep.Grants[head], rep.Counts[head] = sched.Assignment{Start: end, Size: g.End() - end}, r.Count-1
		} else {
			head += n
		}
		if bus != nil {
			book(clock())
			bus.Publish(telemetry.Event{
				Kind:   telemetry.ChunkCompleted,
				Worker: w.TelemetryID, Shard: w.TelemetryShard,
				Start: a.Start, Size: a.Size, ACP: lastACP, Span: span,
				At: bus.Now(), Seconds: secs,
			})
		}
	}
}
