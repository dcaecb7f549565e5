// Package steal is a bounded Chase–Lev deque of pre-sliced chunk
// assignments, one per worker: the substrate of exec.JobState's deque
// core. No runtime uses it; the benchmark's steal.* probes time it. The
// owner pushes and pops at the bottom (LIFO, so the hottest chunk stays
// cache-warm and the fast path is two atomic loads and a store);
// thieves steal from the top (FIFO, so they take the oldest — and for
// decreasing-chunk schemes the largest — work, amortising the steal).
//
// The algorithm is the classic Chase & Le (SPAA 2005) dynamic circular
// deque, restricted to a fixed-capacity ring: a refill puts at most the
// deque's capacity of chunks on a worker's deque at a time, so the ring
// never needs to grow and push can simply report "full". Two deviations
// keep the Go race detector honest without giving up the lock-freedom:
//
//   - Every slot field is accessed atomically. A thief may read a slot
//     that the owner is concurrently overwriting after a wrap-around,
//     but the overwrite is only permitted once top has advanced past
//     the thief's snapshot, so the thief's CompareAndSwap on top fails
//     and the torn value is discarded. Atomic field access makes that
//     benign race invisible to -race and well-defined under the Go
//     memory model.
//   - top and bottom sit on separate cache lines, so a thief hammering
//     one worker's top does not false-share with the owner's bottom.
package steal

import (
	"sync/atomic"

	"loopsched/internal/sched"
)

// cacheLine is the padding granularity. 128 bytes covers the adjacent-
// line prefetcher on current x86 parts as well as the 64-byte line.
const cacheLine = 128

// slot holds one assignment with atomically accessed fields. The two
// fields are not read as a unit: a torn (start, size) pair can only be
// observed by a thief whose subsequent CAS on top is guaranteed to
// fail, so the pair is never used.
type slot struct {
	start atomic.Int64
	size  atomic.Int64
}

// MinCapacity is the smallest ring a Deque will allocate.
const MinCapacity = 8

// Deque is one worker's bounded chunk deque. The zero value is not
// usable; construct with NewDeque. Push and Pop may be called only by
// the owning worker; Steal by any goroutine.
type Deque struct {
	_      [cacheLine]byte // keep neighbours off the bottom line
	bottom atomic.Int64    // next index the owner writes
	_      [cacheLine - 8]byte
	top    atomic.Int64 // next index a thief reads
	_      [cacheLine - 8]byte
	mask   int64
	slots  []slot
}

// NewDeque builds a deque holding at least capacity assignments
// (rounded up to a power of two, minimum MinCapacity).
func NewDeque(capacity int) *Deque {
	n := MinCapacity
	for n < capacity {
		n <<= 1
	}
	return &Deque{mask: int64(n - 1), slots: make([]slot, n)}
}

// Cap returns the ring capacity.
//
//lint:loopsched-hotpath
func (d *Deque) Cap() int { return len(d.slots) }

// Len returns a point-in-time size estimate (exact when only the owner
// is active).
//
//lint:loopsched-hotpath
func (d *Deque) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}

// Push appends an assignment at the owner's end. It reports false when
// the ring is full; the owner then executes the chunk directly instead
// of queueing it. Owner-only.
//
//lint:loopsched-hotpath
func (d *Deque) Push(a sched.Assignment) bool {
	b := d.bottom.Load()
	t := d.top.Load()
	if b-t >= int64(len(d.slots)) {
		return false
	}
	s := &d.slots[b&d.mask]
	s.start.Store(int64(a.Start))
	s.size.Store(int64(a.Size))
	d.bottom.Store(b + 1)
	return true
}

// Pop removes the most recently pushed assignment (LIFO). It reports
// false when the deque is empty or a thief won the race for the last
// element. Owner-only.
//
//lint:loopsched-hotpath
func (d *Deque) Pop() (sched.Assignment, bool) {
	b := d.bottom.Load() - 1
	d.bottom.Store(b)
	t := d.top.Load()
	if t > b {
		// Empty: restore bottom and bail.
		d.bottom.Store(t)
		return sched.Assignment{}, false
	}
	s := &d.slots[b&d.mask]
	a := sched.Assignment{Start: int(s.start.Load()), Size: int(s.size.Load())}
	if t == b {
		// Last element: race thieves for it through top.
		won := d.top.CompareAndSwap(t, t+1)
		d.bottom.Store(t + 1)
		if !won {
			return sched.Assignment{}, false
		}
	}
	return a, true
}

// Steal removes the oldest assignment (FIFO). It reports false when
// the deque is empty. Safe for any goroutine, concurrently with the
// owner and other thieves.
//
//lint:loopsched-hotpath
func (d *Deque) Steal() (sched.Assignment, bool) {
	for {
		t := d.top.Load()
		b := d.bottom.Load()
		if t >= b {
			return sched.Assignment{}, false
		}
		s := &d.slots[t&d.mask]
		a := sched.Assignment{Start: int(s.start.Load()), Size: int(s.size.Load())}
		if d.top.CompareAndSwap(t, t+1) {
			// The CAS proves the slot was not recycled between the read
			// and here (a recycling push requires top > t first), so the
			// pair is consistent.
			return a, true
		}
		// Lost to another thief or the owner's last-element pop; the
		// value may be torn — discard and retry from fresh indices.
	}
}
