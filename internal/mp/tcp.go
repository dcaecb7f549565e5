package mp

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
)

// The TCP transport is a star, which is all a master/slave program
// needs: rank 0 accepts one connection per worker; worker↔worker
// messages are not supported (Send to a rank other than 0 or from a
// rank other than 0 fails). Frames are length-prefixed:
//
//	uint32 length | int32 from | int32 tag | payload
//
// exactly one frame per Send, preserving per-pair ordering over the
// TCP stream.

const frameHeader = 12

func writeFrame(w io.Writer, from, tag int, data []byte) error {
	var hdr [frameHeader]byte
	binary.BigEndian.PutUint32(hdr[0:4], uint32(len(data)))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(int32(from)))
	binary.BigEndian.PutUint32(hdr[8:12], uint32(int32(tag)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(data)
	return err
}

func readFrame(r io.Reader) (Message, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return Message{}, err
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > 1<<30 {
		return Message{}, fmt.Errorf("mp: oversized frame (%d bytes)", n)
	}
	m := Message{
		From: int(int32(binary.BigEndian.Uint32(hdr[4:8]))),
		Tag:  int(int32(binary.BigEndian.Uint32(hdr[8:12]))),
		Data: make([]byte, n),
	}
	_, err := io.ReadFull(r, m.Data)
	return m, err
}

// tcpMaster is rank 0 of a TCP star.
type tcpMaster struct {
	size  int
	in    *inbox
	wg    sync.WaitGroup // accept loop + per-connection readers
	mu    sync.Mutex
	wmu   sync.Mutex // serialises frame writes (a frame is two Writes)
	conns map[int]net.Conn
	ln    net.Listener
}

// ListenTCP creates rank 0 of a `size`-rank world on the listener and
// accepts the size−1 worker connections in the background. Workers
// join with DialTCP.
func ListenTCP(ln net.Listener, size int) (Comm, error) {
	if size < 2 {
		return nil, fmt.Errorf("mp: TCP world needs ≥ 2 ranks")
	}
	m := &tcpMaster{size: size, in: newInbox(), conns: map[int]net.Conn{}, ln: ln}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.accept()
	}()
	return m, nil
}

func (m *tcpMaster) accept() {
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			return
		}
		// The accept goroutine is still counted, so this Add cannot race
		// a Wait that has already drained the group.
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.serve(conn)
		}()
	}
}

// serve handles one worker connection: the first frame is a hello
// carrying the worker's rank in From; everything after feeds the
// master's inbox.
func (m *tcpMaster) serve(conn net.Conn) {
	hello, err := readFrame(conn)
	if err != nil || hello.From < 1 || hello.From >= m.size {
		conn.Close()
		return
	}
	m.mu.Lock()
	if old, dup := m.conns[hello.From]; dup {
		old.Close()
	}
	m.conns[hello.From] = conn
	m.mu.Unlock()
	for {
		msg, err := readFrame(conn)
		if err != nil {
			return
		}
		msg.From = hello.From // trust the connection, not the frame
		if m.in.put(msg) != nil {
			return
		}
	}
}

func (m *tcpMaster) Rank() int { return 0 }
func (m *tcpMaster) Size() int { return m.size }

func (m *tcpMaster) Send(to, tag int, data []byte) error {
	m.mu.Lock()
	conn, ok := m.conns[to]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("mp: rank %d not connected", to)
	}
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return writeFrame(conn, 0, tag, data)
}

func (m *tcpMaster) Recv(from, tag int) (Message, error) { return m.in.get(from, tag) }

func (m *tcpMaster) Close() error {
	m.in.close()
	m.mu.Lock()
	for _, c := range m.conns {
		c.Close()
	}
	m.mu.Unlock()
	err := m.ln.Close()
	m.wg.Wait() // closed conns and listener unblock every reader
	return err
}

// tcpWorker is a non-zero rank of a TCP star.
type tcpWorker struct {
	rank int
	size int
	conn net.Conn
	in   *inbox
	wg   sync.WaitGroup // reader goroutine
	wmu  sync.Mutex
}

// DialTCP joins a TCP world as `rank` (≥ 1) by connecting to rank 0.
func DialTCP(addr string, rank, size int) (Comm, error) {
	if rank < 1 || rank >= size {
		return nil, fmt.Errorf("mp: invalid worker rank %d of %d", rank, size)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	w := &tcpWorker{rank: rank, size: size, conn: conn, in: newInbox()}
	// Hello frame announces our rank.
	if err := writeFrame(conn, rank, 0, nil); err != nil {
		conn.Close()
		return nil, err
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		w.read()
	}()
	return w, nil
}

func (w *tcpWorker) read() {
	for {
		msg, err := readFrame(w.conn)
		if err != nil {
			w.in.close()
			return
		}
		msg.From = 0
		if w.in.put(msg) != nil {
			return
		}
	}
}

func (w *tcpWorker) Rank() int { return w.rank }
func (w *tcpWorker) Size() int { return w.size }

func (w *tcpWorker) Send(to, tag int, data []byte) error {
	if to != 0 {
		return fmt.Errorf("mp: TCP star only reaches rank 0, not %d", to)
	}
	w.wmu.Lock()
	defer w.wmu.Unlock()
	return writeFrame(w.conn, w.rank, tag, data)
}

func (w *tcpWorker) Recv(from, tag int) (Message, error) { return w.in.get(from, tag) }

func (w *tcpWorker) Close() error {
	w.in.close()
	err := w.conn.Close()
	w.wg.Wait() // the closed conn unblocks the reader
	return err
}
