package mp

import (
	"bytes"
	"io"
	"net"
	"testing"
)

// streamPair returns rank 1's stream to rank 0 and rank 0's to rank 1,
// over the in-process world or the TCP star.
func streamPair(t *testing.T, tcp bool) (worker, master io.ReadWriteCloser) {
	t.Helper()
	if !tcp {
		world, err := NewWorld(3)
		if err != nil {
			t.Fatal(err)
		}
		return Stream(world[1], 0), Stream(world[0], 1)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ListenTCP(ln, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	w, err := DialTCP(ln.Addr().String(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return Stream(w, 0), Stream(m, 1)
}

// TestStreamIsAByteStream: message boundaries are not read boundaries —
// writes of any size come out as the same bytes in the same order under
// reads of any size — and the two directions of a pair are independent.
func TestStreamIsAByteStream(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		worker, master := streamPair(t, tcp)
		var want []byte
		for i, n := range []int{1, 0, 7, 4096, 3, 70000} {
			chunk := bytes.Repeat([]byte{byte('a' + i)}, n)
			want = append(want, chunk...)
			if got, err := worker.Write(chunk); err != nil || got != n {
				t.Fatalf("tcp=%v: Write(%d bytes) = %d, %v", tcp, n, got, err)
			}
		}
		got := make([]byte, 0, len(want))
		for _, n := range []int{2, 5, 4095, 1, 100000} {
			buf := make([]byte, min(n, len(want)-len(got)))
			if _, err := io.ReadFull(master, buf); err != nil {
				t.Fatalf("tcp=%v: %v", tcp, err)
			}
			got = append(got, buf...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("tcp=%v: the stream reordered or lost bytes", tcp)
		}
		// Rank 0 answers a rank it has heard from: over the TCP star that
		// is when it knows the connection.
		if _, err := master.Write([]byte("reply")); err != nil {
			t.Fatal(err)
		}
		reply := make([]byte, 5)
		if _, err := io.ReadFull(worker, reply); err != nil || string(reply) != "reply" {
			t.Fatalf("tcp=%v: worker read %q, %v", tcp, reply, err)
		}
	}
}

// TestStreamSeesOnlyItsPeer: rank 0 holds one stream per slave on one
// endpoint; traffic from rank 2, and traffic under another tag, never
// shows up in the stream to rank 1.
func TestStreamSeesOnlyItsPeer(t *testing.T) {
	world, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	to1, to2 := Stream(world[0], 1), Stream(world[0], 2)
	Stream(world[2], 0).Write([]byte("two"))
	world[1].Send(0, tagStream+1, []byte("other tag"))
	Stream(world[1], 0).Write([]byte("one"))
	buf := make([]byte, 16)
	if n, err := to1.Read(buf); err != nil || string(buf[:n]) != "one" {
		t.Fatalf("stream to rank 1 read %q, %v", buf[:n], err)
	}
	if n, err := to2.Read(buf); err != nil || string(buf[:n]) != "two" {
		t.Fatalf("stream to rank 2 read %q, %v", buf[:n], err)
	}
	if m, err := world[0].Recv(1, AnyTag); err != nil || string(m.Data) != "other tag" {
		t.Fatalf("the other tag's message: %q, %v", m.Data, err)
	}
}

// TestStreamCloseClosesTheEndpoint: Close is the endpoint's, so it fails
// the blocked Read of every stream over it.
func TestStreamCloseClosesTheEndpoint(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		worker, _ := streamPair(t, tcp)
		errc := make(chan error, 1)
		go func() {
			_, err := worker.Read(make([]byte, 1))
			errc <- err
		}()
		worker.Close()
		if err := <-errc; err == nil {
			t.Fatalf("tcp=%v: Read returned without an error after Close", tcp)
		}
	}
}
