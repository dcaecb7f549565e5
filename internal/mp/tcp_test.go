package mp

import (
	"net"
	"testing"
)

func TestTCPValidation(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := ListenTCP(ln, 1); err == nil {
		t.Error("1-rank TCP world accepted")
	}
	if _, err := DialTCP(ln.Addr().String(), 0, 3); err == nil {
		t.Error("rank-0 dial accepted")
	}
	if _, err := DialTCP("127.0.0.1:1", 1, 2); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func TestTCPWorkerCannotReachPeers(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	master, err := ListenTCP(ln, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer master.Close()
	w, err := DialTCP(ln.Addr().String(), 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Send(2, 1, nil); err == nil {
		t.Error("worker-to-worker send accepted on star topology")
	}
}
