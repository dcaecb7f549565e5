package mp

import "io"

// tagStream is the one tag streams use (docs/PROTOCOL.md).
const tagStream = 1

// stream is the byte-stream view of one rank pair.
type stream struct {
	c    Comm
	peer int
	rest []byte // unread tail of the last message
}

// Stream returns c's traffic with rank peer as a byte stream, which is
// all the chunk dialogue asks of a transport (wire.NewClient and
// exec.Master.ServeConn take any io.ReadWriteCloser): a Write is one
// tagged Send, a Read drains Recv(peer, tag) in arrival order, and Close
// closes the endpoint — every stream over it — which is what fails a
// blocked Read. One goroutine may read and one write, as on a socket.
func Stream(c Comm, peer int) io.ReadWriteCloser { return &stream{c: c, peer: peer} }

func (s *stream) Write(p []byte) (int, error) {
	if err := s.c.Send(s.peer, tagStream, p); err != nil {
		return 0, err
	}
	return len(p), nil
}

func (s *stream) Read(p []byte) (int, error) {
	for len(s.rest) == 0 {
		m, err := s.c.Recv(s.peer, tagStream)
		if err != nil {
			return 0, err
		}
		s.rest = m.Data
	}
	n := copy(p, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

func (s *stream) Close() error { return s.c.Close() }
