package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"loopsched/internal/telemetry"
)

// Conn frames Requests and Replies over a byte stream. A Conn is the
// unit of the protocol's concurrency model: the chunk dialogue is
// strictly request/reply per connection (each worker holds its own),
// so reads and writes each need a single owner and no internal
// locking. Decoded payloads alias the Conn's read buffer and are valid
// until the next Read* call.
type Conn struct {
	rwc io.ReadWriteCloser
	br  *bufio.Reader
	bw  *bufio.Writer

	rbuf []byte                      // frame-body scratch, grown incrementally
	hdr  [binary.MaxVarintLen64]byte // length-prefix scratch (kept off the stack so it cannot escape per frame)

	bus    *telemetry.Bus // nil disables wire counters
	worker int
	shard  int
}

// NewClient wraps a client-side connection: it writes the protocol
// preamble so a sniffing server can route the stream, and returns the
// framed Conn.
func NewClient(rwc io.ReadWriteCloser) (*Conn, error) {
	c := newConn(rwc, nil)
	if _, err := c.bw.Write(preamble[:]); err != nil {
		return nil, fmt.Errorf("wire: writing preamble: %w", err)
	}
	return c, nil
}

// NewServer wraps a server-side connection whose 4-byte preamble has
// already been consumed by the listener's protocol sniffer. br, if
// non-nil, is the buffered reader the sniffer used (it may hold
// already-buffered frame bytes).
func NewServer(rwc io.ReadWriteCloser, br *bufio.Reader) *Conn {
	return newConn(rwc, br)
}

func newConn(rwc io.ReadWriteCloser, br *bufio.Reader) *Conn {
	if br == nil {
		br = bufio.NewReader(rwc)
	}
	return &Conn{rwc: rwc, br: br, bw: bufio.NewWriter(rwc)}
}

// ConsumePreamble reads and validates a client preamble whose Magic
// byte has already been peeked (not consumed) on br.
func ConsumePreamble(br *bufio.Reader) error {
	var p [4]byte
	if _, err := io.ReadFull(br, p[:]); err != nil {
		return fmt.Errorf("wire: reading preamble: %w", err)
	}
	if p[0] != Magic || p[1] != 'L' || p[2] != 'S' {
		return fmt.Errorf("%w: bad preamble % x", ErrCorrupt, p)
	}
	if p[3] != Version {
		return fmt.Errorf("%w: peer speaks v%d, this side v%d", ErrVersion, p[3], Version)
	}
	return nil
}

// SetTelemetry attaches an event bus: every frame written or read
// publishes a WireFrameSent / WireFrameReceived event carrying the
// frame size, batch item count and encode/decode time. worker and
// shard label the events. A nil bus (the default) is free.
func (c *Conn) SetTelemetry(bus *telemetry.Bus, worker, shard int) {
	c.bus = bus
	c.worker = worker
	c.shard = shard
}

// Close closes the underlying stream, failing any blocked Read.
func (c *Conn) Close() error { return c.rwc.Close() }

// writeFrame appends the body's length prefix and the body to the
// stream and flushes. items is the batch size for telemetry: grants,
// or the iterations a request's records complete (a run counts its
// length).
//
//lint:loopsched-hotpath
func (c *Conn) writeFrame(body []byte, items int, encodeSec float64) error {
	if err := c.queueFrame(body, items, encodeSec); err != nil {
		return err
	}
	return c.bw.Flush()
}

// queueFrame is writeFrame without the flush: the frame sits in the
// send buffer until the next flushed write, so a caller can coalesce
// several frames into one segment.
//
//lint:loopsched-hotpath
func (c *Conn) queueFrame(body []byte, items int, encodeSec float64) error {
	n := binary.PutUvarint(c.hdr[:], uint64(len(body)))
	if _, err := c.bw.Write(c.hdr[:n]); err != nil {
		return err
	}
	if _, err := c.bw.Write(body); err != nil {
		return err
	}
	if c.bus != nil {
		c.bus.Publish(telemetry.Event{
			Kind: telemetry.WireFrameSent, Worker: c.worker, Shard: c.shard,
			Start: items, Size: n + len(body),
			At: c.bus.Now(), Seconds: encodeSec,
		})
	}
	return nil
}

// WriteRequest encodes and sends one request frame.
//
//lint:loopsched-hotpath
func (c *Conn) WriteRequest(r *Request) error {
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	bp := bufPool.Get().(*[]byte)
	body, err := appendRequest((*bp)[:0], r)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = body
	var enc float64
	var items int
	if c.bus != nil {
		enc, items = time.Since(t0).Seconds(), r.iterations()
	}
	err = c.writeFrame(body, items, enc)
	bufPool.Put(bp)
	return err
}

// QueueRequest encodes a request frame into the send buffer without
// flushing it; the frame ships with the connection's next flushed
// write, so several frames can leave in one segment.
//
//lint:loopsched-hotpath
func (c *Conn) QueueRequest(r *Request) error {
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	bp := bufPool.Get().(*[]byte)
	body, err := appendRequest((*bp)[:0], r)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = body
	var enc float64
	var items int
	if c.bus != nil {
		enc, items = time.Since(t0).Seconds(), r.iterations()
	}
	err = c.queueFrame(body, items, enc)
	bufPool.Put(bp)
	return err
}

// WriteReply encodes and sends one reply frame.
//
//lint:loopsched-hotpath
func (c *Conn) WriteReply(r *Reply) error {
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	bp := bufPool.Get().(*[]byte)
	body, err := appendReply((*bp)[:0], r)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = body
	var enc float64
	if c.bus != nil {
		enc = time.Since(t0).Seconds()
	}
	err = c.writeFrame(body, r.Chunks(), enc)
	bufPool.Put(bp)
	return err
}

// readBody reads an n-byte frame body into the Conn's scratch buffer.
// The buffer grows incrementally as bytes actually arrive, so a lying
// length header on a truncated stream cannot force a large
// allocation.
//
//lint:loopsched-hotpath
func (c *Conn) readBody(n int) ([]byte, error) {
	if n <= cap(c.rbuf) {
		buf := c.rbuf[:n]
		if _, err := io.ReadFull(c.br, buf); err != nil {
			return nil, noEOF(err)
		}
		return buf, nil
	}
	buf := c.rbuf[:cap(c.rbuf)]
	filled := 0
	for filled < n {
		if filled == len(buf) {
			step := len(buf)
			if step < 4<<10 {
				step = 4 << 10
			}
			if step > 1<<20 {
				step = 1 << 20
			}
			if rest := n - len(buf); step > rest {
				step = rest
			}
			// The growth step is the one allocation readBody is allowed:
			// it is bounded (<=1MiB), amortised over the buffer's lifetime,
			// and only taken when a frame outgrows every previous frame —
			// steady-state reads reuse rbuf and never reach this line.
			//lint:loopsched-ignore hotalloc bounded one-off growth of the reusable read buffer
			buf = append(buf, make([]byte, step)...)
		}
		m, err := c.br.Read(buf[filled:])
		filled += m
		if err != nil {
			return nil, noEOF(err)
		}
	}
	c.rbuf = buf
	return buf[:n], nil
}

// noEOF converts a mid-frame EOF into ErrUnexpectedEOF, so only a
// clean close between frames reads as io.EOF.
func noEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// readFrame reads one length-prefixed frame body. io.EOF is returned
// untouched only for a connection closed between frames.
//
//lint:loopsched-hotpath
func (c *Conn) readFrame() ([]byte, error) {
	size, err := binary.ReadUvarint(c.br)
	if err != nil {
		return nil, err
	}
	if size > MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, size)
	}
	if size == 0 {
		return nil, fmt.Errorf("%w: empty frame", ErrCorrupt)
	}
	return c.readBody(int(size))
}

// publishReceived reports one decoded frame to the telemetry bus.
//
//lint:loopsched-hotpath
func (c *Conn) publishReceived(items, size int, decodeSec float64) {
	if c.bus == nil {
		return
	}
	c.bus.Publish(telemetry.Event{
		Kind: telemetry.WireFrameReceived, Worker: c.worker, Shard: c.shard,
		Start: items, Size: size,
		At: c.bus.Now(), Seconds: decodeSec,
	})
}

// ReadRequest blocks for the next request frame and decodes it into
// r, reusing r's slices. Record data is valid until the next Read* on
// this Conn.
//
//lint:loopsched-hotpath
func (c *Conn) ReadRequest(r *Request) error {
	body, err := c.readFrame()
	if err != nil {
		return err
	}
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	if err := decodeRequest(body, r); err != nil {
		return err
	}
	if c.bus != nil {
		c.publishReceived(r.iterations(), len(body), time.Since(t0).Seconds())
	}
	return nil
}

// ReadReply blocks for the next reply frame and decodes it into r,
// reusing r's slices.
//
//lint:loopsched-hotpath
func (c *Conn) ReadReply(r *Reply) error {
	body, err := c.readFrame()
	if err != nil {
		return err
	}
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	if err := decodeReply(body, r); err != nil {
		return err
	}
	var dec float64
	if c.bus != nil {
		dec = time.Since(t0).Seconds()
	}
	c.publishReceived(r.Chunks(), len(body), dec)
	return nil
}

// WriteFetchAdd sends one ledger claim for n scheduling steps.
//
//lint:loopsched-hotpath
func (c *Conn) WriteFetchAdd(n int) error {
	bp := bufPool.Get().(*[]byte)
	body, err := appendFetchAdd((*bp)[:0], n)
	if err != nil {
		bufPool.Put(bp)
		return err
	}
	*bp = body
	err = c.writeFrame(body, 1, 0)
	bufPool.Put(bp)
	return err
}

// WriteStep sends the ledger's answer to one claim: the first claimed
// step.
//
//lint:loopsched-hotpath
func (c *Conn) WriteStep(step uint64) error {
	bp := bufPool.Get().(*[]byte)
	body := appendStep((*bp)[:0], step)
	*bp = body
	err := c.writeFrame(body, 1, 0)
	bufPool.Put(bp)
	return err
}

// ReadStep blocks for the next step frame and returns the first
// claimed step.
//
//lint:loopsched-hotpath
func (c *Conn) ReadStep() (uint64, error) {
	body, err := c.readFrame()
	if err != nil {
		return 0, err
	}
	step, err := decodeStep(body)
	if err != nil {
		return 0, err
	}
	c.publishReceived(1, len(body), 0)
	return step, nil
}

// FetchAdd performs one synchronous ledger round trip: claim n steps,
// block for the first claimed step.
//
//lint:loopsched-hotpath
func (c *Conn) FetchAdd(n int) (uint64, error) {
	if err := c.WriteFetchAdd(n); err != nil {
		return 0, err
	}
	return c.ReadStep()
}

// ReadClientFrame blocks for the next client-originated frame and
// dispatches on its type: a request frame decodes into r (exactly as
// ReadRequest), a fetchadd frame returns its claimed step count.
//
//lint:loopsched-hotpath
func (c *Conn) ReadClientFrame(r *Request) (Kind, int, error) {
	body, err := c.readFrame()
	if err != nil {
		return 0, 0, err
	}
	if body[0] == frameFetchAdd {
		n, err := decodeFetchAdd(body)
		if err != nil {
			return 0, 0, err
		}
		c.publishReceived(1, len(body), 0)
		return KindFetchAdd, n, nil
	}
	var t0 time.Time
	if c.bus != nil {
		t0 = time.Now()
	}
	if err := decodeRequest(body, r); err != nil {
		return 0, 0, err
	}
	if c.bus != nil {
		c.publishReceived(r.iterations(), len(body), time.Since(t0).Seconds())
	}
	return KindRequest, 0, nil
}

// Send writes one request and does not wait: the reply is collected by
// a later Recv, so the caller may compute in between.
//
//lint:loopsched-hotpath
func (c *Conn) Send(req *Request) error { return c.WriteRequest(req) }

// Recv blocks for the reply to the oldest unanswered request. A
// protocol-level failure reported by the server surfaces as a
// ServerError.
//
//lint:loopsched-hotpath
func (c *Conn) Recv(rep *Reply) error {
	if err := c.ReadReply(rep); err != nil {
		return err
	}
	if rep.Err != "" {
		// Boxing the error into the interface return allocates, but a
		// server-reported protocol failure is terminal for the stream,
		// never steady-state; escapecheck honours this directive.
		//lint:loopsched-ignore hotalloc server error replies are off the steady-state path
		return ServerError(rep.Err)
	}
	return nil
}

// Call performs one synchronous round trip: Send, then Recv.
//
//lint:loopsched-hotpath
func (c *Conn) Call(req *Request, rep *Reply) error {
	if err := c.Send(req); err != nil {
		return err
	}
	return c.Recv(rep)
}
