package dispense

import (
	"math/bits"
	"slices"
	"sync/atomic"

	"loopsched/internal/sched"
)

// Book is a master's account of one loop around its Dispenser: the
// result ledger (one bit per iteration, flipped once when the iteration
// is delivered), what each worker holds, the chunks to re-issue, and the
// order in which the gather releases its requests. exec.Master, behind
// every runtime, and the simulator's master, flat and every shard of a
// simulated hierarchy, grant, stage and retire through one; the lock,
// the links, the clock, parking and telemetry stay at the site.
//
// Concurrency: a Book has no lock. The result ledger is atomic: Deposit
// and Delivered may be called from any goroutine. Worker w's holding and
// what it learnt (Room, Retire, Held, Learn) are serialised per worker;
// Grant, which touches both, Fail, Requeue, Restage, Turn and the
// Dispenser's methods by the master's lock besides.
type Book struct {
	*Dispenser
	got      []atomic.Uint64
	held     [][]sched.Assignment // per worker: granted, not yet retired
	learnt   [][2]float64         // per worker: work and seconds not yet fed back
	ledger   int                  // how many chunks a worker may hold
	requeued []sched.Assignment   // abandoned chunks to re-issue
	turn     []int                // the gather's release line, first to draw first
	chunks   atomic.Int64         // chunks granted, re-issues counted again,
	granted  atomic.Int64         // and the iterations in them
	src      Stager
}

// Stager is where a Book's stages come from, and who waits on one: the
// master around the book. The book calls it under the master's lock.
type Stager interface {
	// Take hands over the next range to stage without waiting; ok is
	// false when there is none right now.
	Take() (start, size int, ok bool)
	// Waiting reports whether worker w's request waits for a grant.
	Waiting(w int) bool
}

// NewBook returns the book of a loop of n iterations whose workers hold
// at most ledger chunks each, around a Dispenser built from cfg, staging
// what src hands over.
func NewBook(cfg Config, n, ledger int, src Stager) *Book {
	b := &Book{
		Dispenser: New(cfg),
		src:       src,
		got:       make([]atomic.Uint64, (n+63)/64),
		held:      make([][]sched.Assignment, cfg.Workers),
		learnt:    make([][2]float64, cfg.Workers),
		ledger:    ledger,
	}
	// The holdings share one array, sized so that booking never grows
	// one; a ledger past 256 chunks grows on demand.
	c := min(ledger, 256)
	arr := make([]sched.Assignment, cfg.Workers*c)
	for w := range b.held {
		b.held[w] = arr[w*c : w*c : (w+1)*c]
	}
	return b
}

// Room is how many of credits chunks worker w may be granted: what its
// ledger has room for.
func (b *Book) Room(w, credits int) int { return min(credits, b.ledger-len(b.held[w])) }

// Held returns the chunks worker w holds, in grant order; the slice is
// the book's until the worker's next Grant or Retire.
func (b *Book) Held(w int) []sched.Assignment { return b.held[w] }

// Granted returns the chunks granted so far and the iterations in them,
// re-issued chunks counted again. It may be read from any goroutine.
func (b *Book) Granted() (chunks int, iterations int64) {
	return int(b.chunks.Load()), b.granted.Load()
}

// Turn returns the worker the gather's release line lets draw next; ok
// is false when no line holds anyone back.
func (b *Book) Turn() (w int, ok bool) {
	if len(b.turn) == 0 {
		return 0, false
	}
	return b.turn[0], true
}

// Learn files the work a worker completed and the seconds it took, for a
// learning policy (AWF) on the worker's next Grant.
func (b *Book) Learn(w int, work, secs float64) {
	b.learnt[w][0] += work
	b.learnt[w][1] += secs
}

// Grant appends to dst worker w's next chunks, at most room, and books
// them to the worker: requeued chunks first, then one share-bounded
// Claim at acpNow, which what w learnt since its last Grant informs
// first. While the gather's release line holds w back it grants nothing;
// when the stage is drained it stages the next range (Restage) and
// claims again. replanned reports a majority re-plan, as Claim does;
// moved that the line or the stage moved, so other requests waiting on
// the book may now draw. A stage that fails to plan is err.
//
//lint:loopsched-hotpath
func (b *Book) Grant(w, acpNow, room int, dst []sched.Assignment) (_ []sched.Assignment, replanned, moved bool, err error) {
	n := len(dst)
	b.Feedback(w, b.learnt[w][0], b.learnt[w][1])
	b.learnt[w] = [2]float64{}
	for {
		if len(b.turn) > 0 {
			if b.turn[0] != w {
				break
			}
			b.turn, moved = b.turn[1:], true
		}
		if len(b.requeued) > 0 {
			dst, room = b.takeRequeued(dst, room)
		}
		if room > 0 {
			var re bool
			dst, re = b.Claim(w, acpNow, room, dst)
			replanned = replanned || re
		}
		if len(dst) > n || room <= 0 {
			break
		}
		staged, serr := b.Restage(w)
		if !staged || serr != nil {
			err = serr
			break
		}
		moved = true
	}
	if len(dst) > n {
		b.held[w] = append(b.held[w], dst[n:]...)
		iters := 0
		for _, a := range dst[n:] {
			iters += a.Size
		}
		b.chunks.Add(int64(len(dst) - n))
		b.granted.Add(int64(iters))
	}
	return dst, replanned, moved, err
}

// Restage stages the next range the Stager hands over once the staged
// one is drained — for a distributed scheme only after the step-1(a)
// gather, whose first stage lines up the waiting requests and also's to
// draw in decreasing order of ACP, ties by worker id, as the paper's
// master serves its initial queue (§3.1). also is the worker asking, or
// -1. It reports whether it staged; a stage that fails to plan is err.
func (b *Book) Restage(also int) (bool, error) {
	if !b.Drained() || b.dist && !b.Gathered() {
		return false, nil
	}
	start, size, ok := b.src.Take()
	if !ok {
		return false, nil
	}
	first := !b.Planned()
	err := b.Stage(start, size)
	if first && b.dist {
		b.turn = b.turn[:0]
		for w := range b.held {
			if w == also || b.src.Waiting(w) {
				b.turn = append(b.turn, w)
			}
		}
		slices.SortStableFunc(b.turn, func(v, u int) int { return b.ACP(u) - b.ACP(v) })
	}
	return true, err
}

// Requeue files abandoned chunks for re-issue ahead of fresh ones.
func (b *Book) Requeue(chunks ...sched.Assignment) { b.requeued = append(b.requeued, chunks...) }

// Fail requeues everything worker w holds and takes it out of the
// gather's release line: it will draw no more.
func (b *Book) Fail(w int) {
	b.Requeue(b.held[w]...)
	b.held[w] = b.held[w][:0]
	b.turn = slices.DeleteFunc(b.turn, func(v int) bool { return v == w })
}

// takeRequeued appends to dst the next requeued chunks that still have
// undelivered iterations (a failed worker may have delivered its chunk
// after the requeue), at most room, and returns the room left.
func (b *Book) takeRequeued(dst []sched.Assignment, room int) ([]sched.Assignment, int) {
	for ; room > 0 && len(b.requeued) > 0; b.requeued = b.requeued[1:] {
		if a := b.requeued[0]; !b.Delivered(a) {
			dst, room = append(dst, a), room-1
		}
	}
	return dst, room
}

// Retire drops from worker w's holding every chunk whose iterations have
// all been deposited, and returns how many chunks and iterations it
// dropped. A synchronous request (sync) declares that the worker holds
// nothing else: whatever it still held was abandoned — the worker
// restarted — and is returned, for Requeue under the master's lock.
func (b *Book) Retire(w int, sync bool) (chunks, iters int, abandoned []sched.Assignment) {
	kept, iters := b.retire(b.held[w])
	chunks = len(b.held[w]) - len(kept)
	if sync && len(kept) > 0 {
		abandoned, kept = slices.Clone(kept), kept[:0]
	}
	b.held[w] = kept
	return chunks, iters, abandoned
}

// Delivered reports whether every iteration of a has been deposited.
func (b *Book) Delivered(a sched.Assignment) bool {
	return b.missing(a.Start, a.End()) == a.End()
}

// retire drops from out, in place, every chunk whose iterations have
// all been received — the chunks Delivered reports — and returns the
// chunks kept, in order, and the iterations retired. It works per
// contiguous stretch of out, not per chunk: it seeks, a ledger word at a
// time, the stretch's first iteration not received. Every chunk ending
// by it retires; the chunk holding it stays, and so does each chunk after
// it whose first iteration is missing too — one bit read per chunk, not
// a word walk over chunks known to stay — and the seek resumes at the
// next one.
//
//lint:loopsched-hotpath
func (b *Book) retire(out []sched.Assignment) (kept []sched.Assignment, iters int) {
	kept = out[:0] // kept never outruns the walk, so it may share out's array
	for i := 0; i < len(out); {
		k := i + Stretch(out[i:])
		hi := out[k-1].End() // out[i:k] is one stretch, ending at hi
		for i < k {
			miss := b.missing(out[i].Start, hi)
			for ; i < k && out[i].End() <= miss; i++ {
				iters += out[i].Size
			}
			if i == k {
				break
			}
			kept = append(kept, out[i])
			for i++; i < k && !b.flipped(out[i].Start); i++ {
				kept = append(kept, out[i])
			}
		}
	}
	return kept, iters
}

// Stretch returns how many of grants, from the first, continue one another.
func Stretch(grants []sched.Assignment) int {
	n := 1
	for n < len(grants) && grants[n].Start == grants[n-1].End() {
		n++
	}
	return n
}

// missing returns the first iteration in [lo, hi) not yet received, or
// hi if every one has been.
func (b *Book) missing(lo, hi int) int {
	for ; lo < hi; lo = (lo/64 + 1) * 64 {
		w, mask := b.word(lo, hi)
		if v := mask &^ w.Load(); v != 0 {
			return lo&^63 + bits.TrailingZeros64(v)
		}
	}
	return hi
}

// flipped reports whether iteration i's ledger bit has flipped: it has
// been received.
func (b *Book) flipped(i int) bool { return b.got[i/64].Load()>>(i%64)&1 == 1 }

// Deposit records iterations [lo, hi) as delivered — it sets their
// ledger bits — and returns how many of them were not yet.
func (b *Book) Deposit(lo, hi int) (fresh int) {
	for ; lo < hi; lo = (lo/64 + 1) * 64 {
		w, mask := b.word(lo, hi)
		for {
			old := w.Load()
			if old&mask == mask || w.CompareAndSwap(old, old|mask) {
				fresh += bits.OnesCount64(mask &^ old)
				break
			}
		}
	}
	return fresh
}

// word returns the ledger word holding iteration lo and the mask of its
// bits in [lo, hi).
func (b *Book) word(lo, hi int) (*atomic.Uint64, uint64) {
	n := min(hi-lo, 64-lo%64)
	return &b.got[lo/64], ^uint64(0) >> (64 - n) << (lo % 64)
}
