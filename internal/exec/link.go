package exec

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"slices"

	"loopsched/internal/wire"
)

// Link is a client's end of the chunk dialogue — a slave's connection
// to its master, a submaster's to its root — in wire.Request /
// wire.Reply terms, whatever codec carries them. One goroutine drives
// a Link; at most one request is unanswered at a time, and between its
// Send and its Recv the caller may do anything but touch the link
// (DESIGN.md §9). *wire.Conn is the binary link; gobLink adapts
// net/rpc.
type Link interface {
	// Call is Send followed by Recv.
	Call(req *wire.Request, rep *wire.Reply) error
	// Send writes req and returns without waiting; req may be reused
	// as soon as it returns.
	Send(req *wire.Request) error
	// Recv blocks for the reply to the last Send. An error the server
	// reported for that request is returned as the call's error.
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
// grant; deposit-only requests belong to the ledger dialogue, which is
// binary-only. args, reply and done are reused call over call: Go
// encodes args before it returns, and one call is in flight at a time.
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
	for i, r := range req.Results {
		cr := ChunkResult{Index: r.Index, Count: r.Count, Data: r.Data}
		if i < len(req.Spans) {
			cr.Span = req.Spans[i]
		}
		g.args.Results = append(g.args.Results, cr)
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
