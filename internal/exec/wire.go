package exec

import (
	"bufio"
	"io"
	"math"
	"net/rpc"
	"slices"
	"time"

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
// serves is a request it answers with a reply: the codec's FetchAdd and
// no-reply frames ask for an answer no master gives, so either drops
// the dialogue — left unanswered, a claim would deadlock its worker,
// and results filed without a reply would leave it none to read.
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
		if err != nil || kind != wire.KindRequest || req.NoReply {
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
// piggy-back"; DESIGN.md §9 states its rules. A refill goes out
// synchronously when the queue is empty and, with prefetch on, ahead of
// need: when the work still held is estimated to last no longer than one
// master round trip (the lead). Its answer is collected when the queue
// has run dry, so the round trip hides behind computation and a chunk
// is bound to this worker only when it is about to need it. A window ≥ 1
// caps the chunks held and sizes every ask; below 1 each ask covers what
// will outlast the next round trip (ask). idle is stall time the caller
// has yet to report; it rides the first request.
func (w Worker) runWindow(l Link, window int, prefetch bool, idle float64) error {
	var (
		req       wire.Request
		rep       wire.Reply
		queue     []sched.Assignment
		spanQueue []uint64 // parallel to queue: one span per grant
		qbuf      []sched.Assignment
		sbuf      []uint64      // the queues' arrays: a pop moves the queue's start, a refill starts over
		queued    int           // iterations in queue
		pending   []wire.Record // computed, not yet shipped (a run of empty results is one record)
		spans     []uint64      // parallel to pending: one span per record
		comp      float64       // kernel seconds not yet reported
		busy      float64       // kernel seconds so far, over
		ran       int           // this many iterations: the running cost estimate
		size      int           // iterations in the chunk last started: what a grant is expected to hold
		lead      float64       // the round trip the time rule reads: the first measured, raised by late replies
		rtt       float64       // the latest round trip measured: what an ask covers
		mark      time.Time     // kernel time is booked up to here
		sentAt    time.Time     // when the unanswered refill left
		inflight  bool          // a refill is unanswered
		stopSeen  bool
		echo      bool // the master span-tags its grants: echo the spans back
		lastACP   int
	)
	hold := window // chunks held at most: the queue, plus the one in hand a prefetch overlaps
	if prefetch {
		hold++
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
	// ask sizes a refill sent while held iterations are still to run:
	// under a window, room, what the cap leaves. Otherwise the answer,
	// landing one round trip from now, must keep the worker busy for one
	// more — the latest round trip in iterations at the running cost, less
	// what of the held work will be left then, in chunks the size of the
	// last one started; DefaultStealWindow while nothing is measured.
	ask := func(held, room int) int {
		if window >= 1 {
			return room
		}
		if rtt == 0 || ran == 0 {
			return DefaultStealWindow
		}
		trip := rtt * float64(ran) / busy
		need := trip - max(0, float64(held)-trip)
		return int(min(max(1, math.Ceil(need/float64(size))), grantCeiling))
	}
	// send sends a refill of ask(held, room) chunks, shipping everything
	// pending.
	send := func(pre bool, held, room int) error {
		fill(pre, ask(held, room))
		return l.Send(&req)
	}
	for {
		if len(queue) == 0 {
			// Out of work. With nothing in flight the refill is synchronous
			// and may park at the master; its round trip is communication.
			// Of a prefetch's round trip what is left is a stall, and an
			// answer really waited for (a quarter of the lead or more) left
			// too late: its round trip is measured, and raises the lead.
			sync := !inflight
			waitStart := w.now()
			if sync {
				sentAt = waitStart
				if err := send(false, 0, hold); err != nil {
					return err
				}
			}
			if err := l.Recv(&rep); err != nil {
				return err
			}
			now := w.now()
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
			inflight = false
			stopSeen, echo = stopSeen || rep.Stop, echo || len(rep.Spans) > 0
			queue, spanQueue = qbuf[:0], sbuf[:0] // the queue is empty
			for i, g := range rep.Grants {
				// Without a span from the master the deterministic local id
				// still pairs grant and completion on an in-process bus.
				span := telemetry.SpanID(0, g.Start)
				if i < len(rep.Spans) {
					span = rep.Spans[i]
				}
				queue, spanQueue, queued = append(queue, g), append(spanQueue, span), queued+g.Size
			}
			qbuf, sbuf = queue, spanQueue
			if sync && rep.Stop {
				return nil // the one way out: this request shipped everything
			}
			continue
		}
		a, span := queue[0], spanQueue[0]
		queue, spanQueue, queued = queue[1:], spanQueue[1:], queued-a.Size
		start := w.now()
		mark, size = start, a.Size
		for i := a.Start; i < a.End(); {
			next := a.End()
			if prefetch && !inflight && !stopSeen && (window < 1 || len(queue) < window) {
				// The refill leaves when what is still held — the rest of
				// this chunk and the queue — costs no more than the lead at
				// this worker's measured rate; until then it looks again
				// after one iteration (nothing measured yet) or half the
				// slack. Under a window that a full window of chunks like
				// this one would not outlast, an early request would only
				// come back smaller: the loop asks when dry, for all it may.
				if i > a.Start { // mark is this very instant otherwise
					lap()
				}
				next = i + 1
				trip := lead * float64(ran) / busy // in iterations of this worker's kernel
				held := a.End() - i + queued
				switch slack := float64(held) - trip; {
				case ran == 0:
				case window >= 1 && float64(hold*a.Size) < trip:
					next = a.End()
				case slack > 0:
					next = min(i+max(1, int(slack/2)), a.End())
				default:
					// A request ships what is computed, this chunk's part and
					// its kernel seconds included; the rest rides the next one.
					sentAt = mark
					if err := send(true, held, window-len(queue)); err != nil {
						return err
					}
					inflight, next, mark = true, a.End(), w.now()
				}
			}
			// Send has consumed req, so the records may reuse the buffers
			// it was built from.
			from := len(pending)
			pending = w.run(pending, i, next)
			if k := from - 1; k >= 0 && from < len(pending) && spans[k] == span &&
				pending[k].Count > 0 && pending[from].Count > 0 && pending[k].Index+pending[k].Count == i {
				// This step's first run continues the chunk's last one.
				pending[k].Count += pending[from].Count
				pending = append(pending[:from], pending[from+1:]...)
			}
			for range pending[len(spans):] {
				spans = append(spans, span)
			}
			ran, i = ran+next-i, next
		}
		lap()
		w.completed(a, span, lastACP, mark.Sub(start).Seconds())
	}
}
