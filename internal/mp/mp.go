// Package mp is a small message-passing substrate in the style of the
// MPI core the paper's implementation relies on (mpich 1.2.0):
// numbered ranks exchanging tagged point-to-point messages, with
// any-source/any-tag receives. Two transports are provided — an
// in-process channel world (rank = goroutine) and a TCP star (rank 0
// accepts, workers dial). It is a transport and nothing else: the paper's
// master/slave program (§3.1) is exec.Master and the one slave loop, which
// reach each other through Stream, the byte-stream view of a rank pair.
package mp

import (
	"errors"
	"fmt"
	"sync"
)

// Wildcards for Recv.
const (
	AnySource = -1
	AnyTag    = -1
)

// Message is one received datagram.
type Message struct {
	From int
	Tag  int
	Data []byte
}

// Comm is one rank's communicator endpoint. Sends are non-blocking
// (buffered); Recv blocks until a matching message arrives. Message
// order is preserved per (sender, receiver) pair, as in MPI.
type Comm interface {
	// Rank is this endpoint's id, 0..Size()-1; rank 0 is the master.
	Rank() int
	// Size is the number of ranks in the world.
	Size() int
	// Send delivers data to rank `to` with the given tag.
	Send(to, tag int, data []byte) error
	// Recv returns the oldest message matching (from, tag); use
	// AnySource/AnyTag as wildcards.
	Recv(from, tag int) (Message, error)
	// Close tears the endpoint down; blocked Recvs return an error.
	Close() error
}

// ErrClosed is returned by operations on a closed communicator.
var ErrClosed = errors.New("mp: communicator closed")

// inbox is a matching queue shared by both transports.
type inbox struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message
	closed bool
}

func newInbox() *inbox {
	ib := &inbox{}
	ib.cond = sync.NewCond(&ib.mu)
	return ib
}

func (ib *inbox) put(m Message) error {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	if ib.closed {
		return ErrClosed
	}
	ib.queue = append(ib.queue, m)
	ib.cond.Broadcast()
	return nil
}

func (ib *inbox) get(from, tag int) (Message, error) {
	ib.mu.Lock()
	defer ib.mu.Unlock()
	for {
		for i, m := range ib.queue {
			if (from == AnySource || m.From == from) && (tag == AnyTag || m.Tag == tag) {
				ib.queue = append(ib.queue[:i], ib.queue[i+1:]...)
				return m, nil
			}
		}
		if ib.closed {
			return Message{}, ErrClosed
		}
		ib.cond.Wait()
	}
}

func (ib *inbox) close() {
	ib.mu.Lock()
	ib.closed = true
	ib.cond.Broadcast()
	ib.mu.Unlock()
}

// localComm is one rank of an in-process world.
type localComm struct {
	rank  int
	size  int
	world []*localComm
	in    *inbox
}

// NewWorld creates an in-process world of n ranks connected through
// channels; index i of the returned slice is rank i's endpoint.
func NewWorld(n int) ([]Comm, error) {
	if n < 1 {
		return nil, fmt.Errorf("mp: world size %d", n)
	}
	ranks := make([]*localComm, n)
	out := make([]Comm, n)
	for i := range ranks {
		ranks[i] = &localComm{rank: i, size: n, world: ranks, in: newInbox()}
		out[i] = ranks[i]
	}
	return out, nil
}

func (c *localComm) Rank() int { return c.rank }
func (c *localComm) Size() int { return c.size }

func (c *localComm) Send(to, tag int, data []byte) error {
	if to < 0 || to >= c.size {
		return fmt.Errorf("mp: send to unknown rank %d", to)
	}
	// Copy: the sender may reuse its buffer, as MPI allows after
	// MPI_Send returns.
	buf := append([]byte(nil), data...)
	return c.world[to].in.put(Message{From: c.rank, Tag: tag, Data: buf})
}

func (c *localComm) Recv(from, tag int) (Message, error) {
	return c.in.get(from, tag)
}

func (c *localComm) Close() error {
	c.in.close()
	return nil
}
