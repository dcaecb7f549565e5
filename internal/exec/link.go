package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"
	"sync/atomic"

	"loopsched/internal/wire"
)

// Link is a client's end of the chunk dialogue — a slave's connection
// to its master, a submaster's to its root — in wire.Request /
// wire.Reply terms, whatever codec carries them. One goroutine drives
// a Link; at most one request is unanswered at a time, and between its
// Send and its Recv the caller may do anything but touch the link
// (DESIGN.md §9). *wire.Conn is the binary link; gobLink adapts
// net/rpc; memLink reaches a master in the same process.
type Link interface {
	// Call is Send followed by Recv.
	Call(req *wire.Request, rep *wire.Reply) error
	// Send writes req and returns without waiting; req may be reused
	// as soon as it returns.
	Send(req *wire.Request) error
	// Recv blocks for the reply to the last Send. An error the server
	// reported for that request is returned as the call's error. Only
	// Recv writes rep, so its grants hold until the next Recv.
	Recv(rep *wire.Reply) error
	// Close tears the connection down, failing a blocked Recv.
	Close() error
}

// Dial connects to the master (or root) at addr and returns the link
// for the transport; empty means DefaultTransport.
func Dial(ctx context.Context, addr string, t Transport) (Link, error) {
	t, ok := t.Normalize()
	if !ok {
		return nil, fmt.Errorf("exec: unknown transport %q", t)
	}
	var dialer net.Dialer
	conn, err := dialer.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, err
	}
	if t == TransportNetRPC {
		return newGobLink(conn), nil
	}
	c, err := wire.NewClient(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// gobLink speaks the original net/rpc + gob protocol. Its server
// grants one chunk per call and carries neither credits nor span
// blocks, so Request.Credits is dropped and a reply holds at most one
// grant. args, reply and done are reused call over call: Go encodes args
// before it returns, and one call is in flight at a time.
type gobLink struct {
	c     *rpc.Client
	args  ChunkArgs
	reply ChunkReply
	done  chan *rpc.Call // capacity 1: the one call in flight
}

func newGobLink(conn io.ReadWriteCloser) *gobLink {
	return &gobLink{c: rpc.NewClient(conn), done: make(chan *rpc.Call, 1)}
}

func (g *gobLink) Send(req *wire.Request) error {
	g.args = ChunkArgs{
		Worker:      req.Worker,
		ACP:         req.ACP,
		CompSeconds: req.CompSeconds,
		IdleSeconds: req.IdleSeconds,
		Prefetch:    req.Prefetch,
		Results:     slices.Grow(g.args.Results[:0], len(req.Results)),
	}
	for _, r := range req.Results {
		g.args.Results = append(g.args.Results, ChunkResult{Index: r.Index, Count: r.Count, Data: r.Data})
	}
	g.reply = ChunkReply{} // gob leaves zero-valued fields untouched
	g.c.Go("Master.NextChunk", &g.args, &g.reply, g.done)
	return nil
}

func (g *gobLink) Recv(rep *wire.Reply) error {
	call := <-g.done
	if call.Error != nil {
		return call.Error
	}
	rep.Reset()
	rep.Stop = g.reply.Stop
	if g.reply.Assign.Size > 0 {
		rep.Grants = append(rep.Grants, g.reply.Assign)
	}
	return nil
}

func (g *gobLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := g.Send(req); err != nil {
		return err
	}
	return g.Recv(rep)
}

func (g *gobLink) Close() error { return g.c.Close() }

// errLinkClosed is what a closed memory link or a cancelled ctxLink answers.
var errLinkClosed = errors.New("exec: link closed")

// ctxLink is the link Worker.RunLink runs the slave loop over: once its
// context's done closes every Send fails, so a cancelled worker stops at
// its next request even before the goroutine that closes the link runs.
type ctxLink struct {
	Link
	done <-chan struct{}
}

func (l ctxLink) Send(req *wire.Request) error {
	select {
	case <-l.done:
		return errLinkClosed
	default:
		return l.Link.Send(req)
	}
}

func (l ctxLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := l.Send(req); err != nil {
		return err
	}
	return l.Recv(rep)
}

// memLink is a client's link to a master in the same process: Send
// answers the request by calling the master's handler in the caller's
// goroutine — no codec, no goroutine hop — and Recv hands that answer
// over. A prefetch is answered at once; a synchronous request may park
// inside Send until the master has work or ends, and the master's Cancel
// is what releases it. After Close every Send and Recv fails.
type memLink struct {
	batch   batchFunc
	results []ChunkResult // the last request's results, buffer reused
	rep     wire.Reply    // the answer to the last Send
	err     error         // the handler's error for the last Send
	closed  atomic.Bool
}

// Link returns a new link to m for a client in the same process: how the
// local backend's workers and a hier-local shard's submaster reach their
// master (memLink). Its requests are marked in-process (ChunkArgs.yield).
func (m *Master) Link() Link {
	return &memLink{results: make([]ChunkResult, 0, 4), batch: func(args ChunkArgs, credits int, rep *wire.Reply) error {
		args.yield = true
		return m.nextBatch(args, credits, rep)
	}}
}

// Send converts req's records the way the wire server does — a run
// stays one result, data is copied only when there is some — and runs
// the handler on them.
//
//lint:loopsched-hotpath
func (l *memLink) Send(req *wire.Request) error {
	if l.closed.Load() {
		return errLinkClosed
	}
	l.results = chunkResults(l.results, req)
	l.rep.Reset()
	l.err = l.batch(ChunkArgs{
		Worker:      req.Worker,
		ACP:         req.ACP,
		CompSeconds: req.CompSeconds,
		IdleSeconds: req.IdleSeconds,
		Results:     l.results,
		Prefetch:    req.Prefetch,
	}, req.Credits, &l.rep)
	return nil
}

// Recv hands over the answer to the last Send by swapping buffers with
// rep, so neither side copies or allocates.
//
//lint:loopsched-hotpath
func (l *memLink) Recv(rep *wire.Reply) error {
	if l.closed.Load() {
		return errLinkClosed
	}
	if l.err != nil {
		return l.err
	}
	*rep, l.rep = l.rep, *rep
	return nil
}

func (l *memLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := l.Send(req); err != nil {
		return err
	}
	return l.Recv(rep)
}

func (l *memLink) Close() error {
	l.closed.Store(true)
	return nil
}
