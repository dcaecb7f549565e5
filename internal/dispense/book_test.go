package dispense

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"loopsched/internal/sched"
)

// stages is a Stager over consecutive ranges of the given sizes, handed
// out in order. waiting marks the workers whose requests wait; book,
// when set, is checked to be drained whenever a range is taken.
type stages struct {
	t       *testing.T
	book    *Book
	sizes   []int
	next    int // first iteration not yet handed out
	taken   [][2]int
	waiting []bool
}

func (s *stages) Take() (int, int, bool) {
	if len(s.sizes) == 0 {
		return 0, 0, false
	}
	if s.book != nil && !s.book.Drained() {
		s.t.Errorf("stage taken at %d while the last one is not drained", s.next)
	}
	start, size := s.next, s.sizes[0]
	s.sizes, s.next = s.sizes[1:], start+size
	s.taken = append(s.taken, [2]int{start, size})
	return start, size, true
}

func (s *stages) Waiting(w int) bool { return w < len(s.waiting) && s.waiting[w] }

// bookOracle is a master's book kept the long way: a flag per iteration
// delivered, the owner of every iteration held, each worker's holding
// and the requeue, in order.
type bookOracle struct {
	got      []bool
	fresh    int   // iterations delivered, each counted once
	owner    []int // worker holding each iteration, or -1
	held     [][]sched.Assignment
	requeued []sched.Assignment
	next     int // first iteration no fresh grant has covered
}

func (o *bookOracle) delivered(a sched.Assignment) bool {
	for i := a.Start; i < a.End(); i++ {
		if !o.got[i] {
			return false
		}
	}
	return true
}

func (o *bookOracle) own(a sched.Assignment, from, to int) error {
	for i := a.Start; i < a.End(); i++ {
		if o.owner[i] != from {
			return fmt.Errorf("iteration %d of %+v is held by worker %d, want %d", i, a, o.owner[i], from)
		}
		o.owner[i] = to
	}
	return nil
}

// chunksOf expands runs into their chunks, in order.
func chunksOf(runs []sched.Run) []sched.Assignment {
	var out []sched.Assignment
	for _, r := range runs {
		out = r.AppendChunks(out)
	}
	return out
}

// TestBookRandomAgainstOracle drives a Book through seeded random
// requests — deliveries of whole chunks and random patches of them,
// prefetch and synchronous retires, FailWorker-style abandons, late
// deliveries from failed workers, and loops staged in several ranges, as
// a shard master's are — for every registered scheme, and holds it to
// the oracle: every iteration is delivered exactly once, no iteration is
// held by two workers, fresh grants and stages only move forward, every
// claimed batch of more than one chunk is within sched.BatchLimit, and
// what Retire drops is what Delivered reports.
func TestBookRandomAgainstOracle(t *testing.T) {
	names := sched.Names()
	rng := rand.New(rand.NewPCG(44, 1))
	for trial := range 400 {
		s, err := sched.Lookup(names[trial%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		p, n := 1+rng.IntN(4), rng.IntN(700)
		if err := runBook(t, rng, s, p, n); err != nil {
			t.Fatalf("trial %d (%s, p %d, n %d): %v", trial, s.Name(), p, n, err)
		}
	}
}

func runBook(t *testing.T, rng *rand.Rand, s sched.Scheme, p, n int) error {
	src := &stages{t: t, waiting: make([]bool, p)}
	b := NewBook(Config{Scheme: s, Workers: p}, n, src)
	src.book = b
	for left := n; left > 0 || len(src.sizes) == 0; { // one range, or a few
		size := left
		if rng.IntN(2) == 0 {
			size = min(left, 1+rng.IntN(n/2+1))
		}
		src.sizes, left = append(src.sizes, size), left-size
	}
	o := &bookOracle{got: make([]bool, n), owner: make([]int, n), held: make([][]sched.Assignment, p)}
	for i := range o.owner {
		o.owner[i] = -1
	}
	failed, gone := make([]bool, p), []sched.Assignment{}
	acps := make([]int, p)
	var (
		buf  []sched.Assignment
		runs []sched.Run
	)
	deposit := func(lo, hi int) error {
		want := 0
		for i := lo; i < hi; i++ {
			if !o.got[i] {
				o.got[i], want = true, want+1
			}
		}
		if got := b.Deposit(lo, hi); got != want {
			return fmt.Errorf("deposit [%d, %d): %d fresh, want %d", lo, hi, got, want)
		}
		o.fresh += want
		return nil
	}
	for step, live := 0, p; ; step++ {
		if step > 200000 {
			return fmt.Errorf("no end after %d steps: %d of %d delivered", step, o.fresh, n)
		}
		w := rng.IntN(p)
		if failed[w] {
			if len(gone) > 0 && rng.IntN(2) == 0 { // a late delivery from the dead
				a := gone[rng.IntN(len(gone))]
				lo := a.Start + rng.IntN(a.Size)
				if err := deposit(lo, lo+1+rng.IntN(a.End()-lo)); err != nil {
					return err
				}
			}
			continue
		}
		if live > 1 && rng.IntN(50) == 0 { // FailWorker
			b.Fail(w)
			if len(b.Held(w)) > 0 {
				return fmt.Errorf("failed worker %d still holds %v", w, b.Held(w))
			}
			for _, a := range o.held[w] {
				if err := o.own(a, w, -1); err != nil {
					return err
				}
			}
			o.requeued, gone = append(o.requeued, o.held[w]...), append(gone, o.held[w]...)
			o.held[w], failed[w], src.waiting[w], live = nil, true, false, live-1
			if !b.Planned() {
				b.Report(w, b.ACP(w)) // a dead worker counts as reported
			}
			continue
		}

		// The request: what the worker delivers, then its retire.
		for _, a := range o.held[w] {
			switch r := rng.IntN(10); {
			case r < 6:
				if err := deposit(a.Start, a.End()); err != nil {
					return err
				}
			case r < 8:
				lo := a.Start + rng.IntN(a.Size)
				if err := deposit(lo, lo+1+rng.IntN(a.End()-lo)); err != nil {
					return err
				}
			}
		}
		sync := rng.IntN(3) == 0
		var kept, abandoned []sched.Assignment
		retired, iters := 0, 0
		for _, a := range o.held[w] {
			if o.delivered(a) {
				retired, iters = retired+1, iters+a.Size
				if err := o.own(a, w, -1); err != nil {
					return err
				}
			} else if sync {
				abandoned = append(abandoned, a)
				if err := o.own(a, w, -1); err != nil {
					return err
				}
			} else {
				kept = append(kept, a)
			}
		}
		gotRetired, gotIters, gotAbandoned := b.Retire(w, sync)
		if gotRetired != retired || gotIters != iters || !slices.Equal(chunksOf(gotAbandoned), abandoned) {
			return fmt.Errorf("retire %v (sync %v): %d chunks, %d iterations, abandoned %v; want %d, %d, %v",
				o.held[w], sync, gotRetired, gotIters, gotAbandoned, retired, iters, abandoned)
		}
		o.held[w], o.requeued = kept, append(o.requeued, abandoned...)
		if !slices.Equal(chunksOf(b.Held(w)), kept) {
			return fmt.Errorf("worker %d holds %v, want %v", w, b.Held(w), kept)
		}
		b.Requeue(gotAbandoned...)

		// The grant.
		if rng.IntN(4) == 0 {
			acps[w] = 1 + rng.IntN(40)
		}
		b.Report(w, acps[w])
		// 0 is a delivery that asks for nothing; 1–3 chunks are the asks
		// of a worker whose round trip is a chunk or three.
		credits := rng.IntN(4)
		head, lined := b.Turn()
		stage := len(src.taken)
		var err error
		runs, _, _, err = b.Grant(w, acps[w], credits)
		if err != nil {
			return err
		}
		buf = chunksOf(runs)
		if len(buf) > credits {
			return fmt.Errorf("worker %d granted %d chunks for %d credits", w, len(buf), credits)
		}
		if lined && head != w && len(buf) > 0 {
			return fmt.Errorf("worker %d granted %v while worker %d heads the line", w, buf, head)
		}
		if !lined || head == w { // the requeue is served first, delivered chunks skipped
			for k := 0; k < credits && len(o.requeued) > 0; {
				a := o.requeued[0]
				o.requeued = o.requeued[1:]
				if o.delivered(a) {
					continue
				}
				if k >= len(buf) || buf[k] != a {
					return fmt.Errorf("grant %v: chunk %d is not the requeued %+v", buf, k, a)
				}
				k++
			}
		}
		fresh := buf
		for len(fresh) > 0 && fresh[0].Start < o.next {
			fresh = fresh[1:]
		}
		if len(fresh) > 0 {
			st := src.taken[len(src.taken)-1]
			if len(src.taken) > stage+1 {
				return fmt.Errorf("one grant staged %d ranges", len(src.taken)-stage)
			}
			if k := len(fresh); k > 1 {
				sum := fresh[k-2].Size - fresh[k-1].Size
				for _, a := range fresh {
					sum += a.Size
				}
				if limit := sched.BatchLimit(st[0]+st[1]-fresh[0].Start, st[1], p); sum > limit {
					return fmt.Errorf("batch %v: %d iterations, limit %d", fresh, sum, limit)
				}
			}
			for _, a := range fresh {
				if a.Start != o.next || a.Size < 1 || a.End() > st[0]+st[1] {
					return fmt.Errorf("fresh chunk %+v does not continue at %d inside stage %v", a, o.next, st)
				}
				o.next = a.End()
			}
		}
		for _, a := range buf {
			if err := o.own(a, -1, w); err != nil {
				return err
			}
		}
		o.held[w] = append(o.held[w], buf...)
		src.waiting[w] = sync && len(buf) == 0

		if o.fresh == n {
			break
		}
	}
	// Delivered in full: whoever asks, the line's head first, gets nothing.
	for k := 0; k < 2*p; k++ {
		w := k % p
		if head, lined := b.Turn(); lined {
			w = head
		}
		if failed[w] {
			continue
		}
		b.Retire(w, false)
		if runs, _, _, _ = b.Grant(w, acps[w], 8); len(runs) > 0 {
			buf = chunksOf(runs)
			return fmt.Errorf("worker %d granted %v after the loop was delivered", w, buf)
		}
	}
	if !b.Drained() || !b.Delivered(sched.Assignment{Size: n}) {
		return fmt.Errorf("the loop ended undrained (%v) or undelivered", b.Drained())
	}
	if chunks, iters := b.Granted(); iters < int64(n) || chunks < 1 && n > 0 {
		return fmt.Errorf("%d chunks of %d iterations granted for a loop of %d", chunks, iters, n)
	}
	for i, st := range src.taken[1:] {
		if prev := src.taken[i]; st[0] != prev[0]+prev[1] {
			return fmt.Errorf("stage %v does not follow %v", st, prev)
		}
	}
	return nil
}
