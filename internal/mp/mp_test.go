package mp

import (
	"fmt"
	"sync"
	"testing"
)

func TestWorldBasics(t *testing.T) {
	world, err := NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	if world[1].Rank() != 1 || world[1].Size() != 3 {
		t.Fatalf("rank/size wrong")
	}
	if err := world[0].Send(2, 7, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	msg, err := world[2].Recv(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != 0 || msg.Tag != 7 || string(msg.Data) != "hi" {
		t.Fatalf("msg %+v", msg)
	}
	if _, err := NewWorld(0); err == nil {
		t.Error("empty world accepted")
	}
	if err := world[0].Send(9, 0, nil); err == nil {
		t.Error("send to unknown rank accepted")
	}
}

func TestSendCopiesBuffer(t *testing.T) {
	world, _ := NewWorld(2)
	buf := []byte("abc")
	if err := world[0].Send(1, 1, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // sender reuses its buffer
	msg, err := world[1].Recv(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if string(msg.Data) != "abc" {
		t.Errorf("buffer not copied: %q", msg.Data)
	}
}

func TestPerPairOrdering(t *testing.T) {
	world, _ := NewWorld(2)
	for i := 0; i < 100; i++ {
		if err := world[0].Send(1, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		msg, err := world[1].Recv(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Data[0] != byte(i) {
			t.Fatalf("order broken at %d: got %d", i, msg.Data[0])
		}
	}
}

func TestTagMatching(t *testing.T) {
	world, _ := NewWorld(2)
	world[0].Send(1, 5, []byte("five"))
	world[0].Send(1, 6, []byte("six"))
	// Receive tag 6 first even though 5 arrived first.
	msg, err := world[1].Recv(AnySource, 6)
	if err != nil || string(msg.Data) != "six" {
		t.Fatalf("tag matching: %v %q", err, msg.Data)
	}
	msg, err = world[1].Recv(AnySource, AnyTag)
	if err != nil || string(msg.Data) != "five" {
		t.Fatalf("remaining message: %v %q", err, msg.Data)
	}
}

func TestAnySourceBlocksUntilArrival(t *testing.T) {
	world, _ := NewWorld(3)
	done := make(chan Message, 1)
	go func() {
		msg, err := world[0].Recv(AnySource, AnyTag)
		if err == nil {
			done <- msg
		}
	}()
	world[2].Send(0, 9, []byte("late"))
	msg := <-done
	if msg.From != 2 || msg.Tag != 9 {
		t.Fatalf("msg %+v", msg)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	world, _ := NewWorld(2)
	errCh := make(chan error, 1)
	go func() {
		_, err := world[1].Recv(0, AnyTag)
		errCh <- err
	}()
	world[1].Close()
	if err := <-errCh; err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := world[0].Send(1, 1, nil); err != ErrClosed {
		t.Fatalf("send to closed = %v, want ErrClosed", err)
	}
}

func TestConcurrentSenders(t *testing.T) {
	world, _ := NewWorld(5)
	var wg sync.WaitGroup
	const each = 200
	for r := 1; r < 5; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := world[r].Send(0, r, []byte{byte(i)}); err != nil {
					t.Errorf("rank %d: %v", r, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	counts := map[int]int{}
	for i := 0; i < 4*each; i++ {
		msg, err := world[0].Recv(AnySource, AnyTag)
		if err != nil {
			t.Fatal(err)
		}
		// Per-pair ordering: the payload must equal the count seen so
		// far from that sender.
		if int(msg.Data[0]) != counts[msg.From] {
			t.Fatalf("rank %d out of order: got %d want %d", msg.From, msg.Data[0], counts[msg.From])
		}
		counts[msg.From]++
	}
}

func ExampleNewWorld() {
	world, _ := NewWorld(2)
	world[0].Send(1, 1, []byte("ping"))
	msg, _ := world[1].Recv(0, 1)
	fmt.Println(string(msg.Data))
	// Output: ping
}
