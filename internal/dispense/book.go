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
// what it learnt (Retire, Held, Learn) are serialised per worker;
// Grant, which touches both, Fail, Requeue, Restage, Turn and the
// Dispenser's methods by the master's lock besides.
type Book struct {
	*Dispenser
	got      []atomic.Uint64
	hold     []holding    // per worker
	requeued []sched.Run  // abandoned chunks to re-issue
	turn     []int        // the gather's release line, first to draw first
	chunks   atomic.Int64 // chunks granted, re-issues counted again,
	granted  atomic.Int64 // and the iterations in them
	src      Stager
}

// holding is what a Book keeps per worker.
type holding struct {
	runs   []sched.Run // granted, not yet retired, in grant order
	learnt [2]float64  // work and seconds not yet fed back
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

// NewBook returns the book of a loop of n iterations around a Dispenser
// built from cfg, staging what src hands over. No count bounds what a
// worker holds: a grant is bounded by the share and the ask.
func NewBook(cfg Config, n int, src Stager) *Book {
	b := &Book{
		Dispenser: New(cfg),
		src:       src,
		got:       make([]atomic.Uint64, (n+63)/64),
		hold:      make([]holding, cfg.Workers),
	}
	// The holdings share one array of holdRuns runs each: a grant is a
	// run or a few, whatever its chunk count. A holding past that grows
	// on demand.
	c := holdRuns
	arr := make([]sched.Run, cfg.Workers*c)
	for w := range b.hold {
		b.hold[w].runs = arr[w*c : w*c : (w+1)*c]
	}
	return b
}

// holdRuns is the runs a worker's holding has room for before it grows:
// the chunk in hand's run, a prefetched batch of a few, a split or two.
const holdRuns = 16

// Held returns the runs worker w holds, in grant order; the slice is the
// book's until the worker's next Grant or Retire.
func (b *Book) Held(w int) []sched.Run { return b.hold[w].runs }

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
	h := &b.hold[w]
	h.learnt[0] += work
	h.learnt[1] += secs
}

// Grant books to worker w its next chunks, at most credits, as runs of
// equal, contiguous chunks, and returns them — the tail of the worker's
// holding, so the slice is the book's until the worker's next Grant or
// Retire: requeued chunks first, then one share-bounded Claim at acpNow,
// which what w learnt since its last Grant informs first. While the
// gather's release line holds w back it grants nothing; when the stage
// is drained it stages the next range (Restage) and claims again.
// replanned reports a majority re-plan, as Claim does; moved that the
// line or the stage moved, so other requests waiting on the book may
// now draw. A stage that fails to plan is err.
//
//lint:loopsched-hotpath
func (b *Book) Grant(w, acpNow, credits int) (granted []sched.Run, replanned, moved bool, err error) {
	h := &b.hold[w]
	held, n := h.runs, len(h.runs)
	b.Feedback(w, h.learnt[0], h.learnt[1])
	h.learnt = [2]float64{}
	for {
		if len(b.turn) > 0 {
			if b.turn[0] != w {
				break
			}
			b.turn, moved = b.turn[1:], true
		}
		if len(b.requeued) > 0 {
			held, credits = b.takeRequeued(held, credits)
		}
		if credits > 0 {
			var re bool
			held, re = b.Claim(w, acpNow, credits, held)
			replanned = replanned || re
		}
		if len(held) > n || credits <= 0 {
			break
		}
		staged, serr := b.Restage(w)
		if !staged || serr != nil {
			err = serr
			break
		}
		moved = true
	}
	h.runs, granted = held, held[n:]
	chunks, iters := 0, 0
	for _, r := range granted {
		chunks, iters = chunks+r.Count, iters+r.Size*r.Count
	}
	if chunks > 0 {
		b.chunks.Add(int64(chunks))
		b.granted.Add(int64(iters))
	}
	return granted, replanned, moved, err
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
		for w := range b.hold {
			if w == also || b.src.Waiting(w) {
				b.turn = append(b.turn, w)
			}
		}
		slices.SortStableFunc(b.turn, func(v, u int) int { return b.ACP(u) - b.ACP(v) })
	}
	return true, err
}

// Requeue files abandoned runs for re-issue ahead of fresh chunks.
func (b *Book) Requeue(runs ...sched.Run) { b.requeued = append(b.requeued, runs...) }

// Fail requeues everything worker w holds and takes it out of the
// gather's release line: it will draw no more.
func (b *Book) Fail(w int) {
	h := &b.hold[w]
	b.Requeue(h.runs...)
	h.runs = h.runs[:0]
	b.turn = slices.DeleteFunc(b.turn, func(v int) bool { return v == w })
}

// takeRequeued appends to dst the next requeued chunks that still have
// undelivered iterations (a failed worker may have delivered some after
// the requeue), at most credits, at their original boundaries, and returns
// the credits left. A run's delivered leading chunks drop at once; the
// chunks after its first undelivered one are tested one by one, and the
// run is split where one was delivered or the credits end.
func (b *Book) takeRequeued(dst []sched.Run, credits int) ([]sched.Run, int) {
	for credits > 0 && len(b.requeued) > 0 {
		r := &b.requeued[0]
		d := (b.missing(r.Start, r.End()) - r.Start) / r.Size
		r.Start, r.Count = r.Start+d*r.Size, r.Count-d
		if r.Count > 0 {
			k := 1
			for k < min(credits, r.Count) && !b.Delivered(r.Chunk(k)) {
				k++
			}
			dst = append(dst, sched.Run{Start: r.Start, Size: r.Size, Count: k})
			r.Start, r.Count, credits = r.Start+k*r.Size, r.Count-k, credits-k
		}
		if r.Count == 0 {
			b.requeued = b.requeued[1:]
		}
	}
	return dst, credits
}

// Retire drops from worker w's holding every chunk whose iterations have
// all been deposited, and returns how many chunks and iterations it
// dropped. A synchronous request (sync) declares that the worker holds
// nothing else: whatever it still held was abandoned — the worker
// restarted — and is returned, for Requeue under the master's lock.
func (b *Book) Retire(w int, sync bool) (chunks, iters int, abandoned []sched.Run) {
	h := &b.hold[w]
	kept, chunks, iters := b.retire(h.runs)
	if sync && len(kept) > 0 {
		abandoned, kept = slices.Clone(kept), kept[:0]
	}
	h.runs = kept
	return chunks, iters, abandoned
}

// Delivered reports whether every iteration of a has been deposited.
func (b *Book) Delivered(a sched.Assignment) bool {
	return b.missing(a.Start, a.End()) == a.End()
}

// retire drops from held, in place, every chunk whose iterations have
// all been received — the chunks Delivered reports — and returns the
// runs of the chunks kept, in order, and how many chunks and iterations
// it dropped. It works by arithmetic on each run, not chunk by chunk: it
// seeks, a ledger word at a time, the first iteration not received, and
// every chunk ending by it retires; then the first received one after
// it, and every chunk before that one's stays. The seek resumes at the
// chunk it landed in, so a run costs a seek per stretch of chunks that
// retire or stay together. Kept chunks that continue one another at one
// size join one run. A run split by a delivered chunk inside it — a late
// delivery of a requeued chunk — takes one more entry than it had, and
// shifts the runs not yet read up to make room.
//
//lint:loopsched-hotpath
func (b *Book) retire(held []sched.Run) (kept []sched.Run, chunks, iters int) {
	kept = held[:0] // kept never outruns the run being read, but by a split
	for i := 0; i < len(held); i++ {
		r := held[i]
		for at, end := r.Start, r.End(); at < end; {
			miss := b.missing(at, end)
			d := (miss - at) / r.Size
			chunks, iters, at = chunks+d, iters+d*r.Size, at+d*r.Size
			if at == end {
				break
			}
			stay := max(1, (b.received(miss, end)-at)/r.Size)
			switch k := len(kept) - 1; {
			case k >= 0 && kept[k].Size == r.Size && kept[k].End() == at:
				kept[k].Count += stay
			case k == i: // the entry after kept's is still to be read
				held = slices.Insert(held, i+1, sched.Run{})
				kept, i = held[:k+1], i+1
				fallthrough
			default:
				kept = append(kept, sched.Run{Start: at, Size: r.Size, Count: stay})
			}
			at += stay * r.Size
		}
	}
	return kept, chunks, iters
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

// received returns the first iteration in [lo, hi) received, or hi if
// none has been.
func (b *Book) received(lo, hi int) int {
	for ; lo < hi; lo = (lo/64 + 1) * 64 {
		w, mask := b.word(lo, hi)
		if v := mask & w.Load(); v != 0 {
			return lo&^63 + bits.TrailingZeros64(v)
		}
	}
	return hi
}

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
