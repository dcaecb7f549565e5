package dispense

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"loopsched/internal/sched"
)

// ledgerMaster is a master's book reduced to its result ledger over n
// iterations, with the given iterations received.
func ledgerMaster(n int, received ...[2]int) *Book {
	m := &Book{got: make([]atomic.Uint64, (n+63)/64)}
	for _, r := range received {
		m.flip(r[0], r[1])
	}
	return m
}

// flip is Deposit by the name the tests below were written with.
func (b *Book) flip(lo, hi int) int { return b.Deposit(lo, hi) }

// retireOracle is retire by definition, chunk by chunk and bit by bit:
// a chunk retires when every one of its iterations reads received.
func retireOracle(m *Book, out []sched.Assignment) (kept []sched.Assignment, iters int) {
	for _, a := range out {
		done := true
		for i := a.Start; i < a.End(); i++ {
			done = done && m.got[i/64].Load()>>(i%64)&1 == 1
		}
		if done {
			iters += a.Size
		} else {
			kept = append(kept, a)
		}
	}
	return kept, iters
}

// checkRetire holds retire, and delivered chunk by chunk, to the
// oracle on one ledger.
func checkRetire(t *testing.T, name string, m *Book, out []sched.Assignment) {
	t.Helper()
	wantKept, wantIters := retireOracle(m, out)
	for _, a := range out {
		if got, want := m.Delivered(a), !slices.Contains(wantKept, a); got != want {
			t.Errorf("%s: delivered(%v) = %v, want %v", name, a, got, want)
		}
	}
	// The holding as the master books it — equal, contiguous chunks in
	// one run — and chunk by chunk.
	single := make([]sched.Run, len(out))
	for i, a := range out {
		single[i] = sched.Run{Start: a.Start, Size: a.Size, Count: 1}
	}
	// A split shifts the runs not yet read up within the array, or grows
	// it when it is full.
	roomy := func(runs []sched.Run) []sched.Run { return append(make([]sched.Run, 0, len(out)), runs...) }
	for _, held := range [][]sched.Run{slices.Clip(runsOf(out)), single, roomy(runsOf(out)), roomy(single)} {
		in := slices.Clone(held)
		kept, chunks, iters := m.retire(held)
		if !slices.Equal(chunksOf(kept), wantKept) || chunks != len(out)-len(wantKept) || iters != wantIters {
			t.Errorf("%s: retire(%v) kept %v and retired %d chunks of %d iterations, want %v and %d of %d",
				name, in, kept, chunks, iters, wantKept, len(out)-len(wantKept), wantIters)
		}
		for k := 1; k < len(kept); k++ {
			if prev := kept[k-1]; prev.Size == kept[k].Size && prev.End() == kept[k].Start {
				t.Errorf("%s: retire(%v) kept %v: runs %d and %d continue one another", name, in, kept, k-1, k)
			}
		}
	}
}

// runsOf merges chunks into runs, each chunk that continues the last at
// its size joining its run, as a master's Claim does.
func runsOf(out []sched.Assignment) []sched.Run {
	var runs []sched.Run
	for _, a := range out {
		if k := len(runs) - 1; k >= 0 && runs[k].Size == a.Size && runs[k].End() == a.Start {
			runs[k].Count++
			continue
		}
		runs = append(runs, sched.Run{Start: a.Start, Size: a.Size, Count: 1})
	}
	return runs
}

// chunks builds a ledger from (start, size) pairs.
func chunks(pairs ...int) []sched.Assignment {
	var out []sched.Assignment
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, sched.Assignment{Start: pairs[i], Size: pairs[i+1]})
	}
	return out
}

// TestRetireMatchesDelivered pins the per-stretch retire to the
// per-chunk delivered test it replaced, on ledgers a request can find:
// contiguous batches, gaps between them, requeued chunks out of order,
// and partial and out-of-order deliveries, across word boundaries.
func TestRetireMatchesDelivered(t *testing.T) {
	for _, c := range []struct {
		name     string
		out      []sched.Assignment
		received [][2]int
	}{
		{"empty ledger", nil, [][2]int{{0, 64}}},
		{"batch delivered", chunks(0, 4, 4, 4, 8, 4, 12, 4), [][2]int{{0, 16}}},
		{"batch undelivered", chunks(0, 4, 4, 4, 8, 4), nil},
		{"delivered prefix, chunk in hand cut", chunks(0, 4, 4, 4, 8, 4, 12, 4), [][2]int{{0, 10}}},
		{"hole mid-chunk", chunks(0, 4, 4, 4, 8, 4, 12, 4), [][2]int{{0, 5}, {6, 16}}},
		{"delivered tail", chunks(0, 4, 4, 4, 8, 4, 12, 4), [][2]int{{8, 16}}},
		{"out-of-order deliveries", chunks(0, 4, 4, 4, 8, 4, 12, 4, 16, 4), [][2]int{{12, 16}, {0, 4}, {17, 20}}},
		{"gaps between stretches", chunks(0, 8, 8, 8, 40, 8, 48, 8, 100, 3), [][2]int{{0, 16}, {44, 52}, {100, 103}}},
		{"requeued out of order", chunks(96, 4, 0, 4, 4, 4, 100, 4, 64, 8), [][2]int{{0, 8}, {64, 72}, {98, 104}}},
		{"chunk across a word edge", chunks(56, 16, 72, 8), [][2]int{{56, 80}}},
		{"last bit of a word missing", chunks(56, 16, 72, 8), [][2]int{{56, 63}, {64, 80}}},
		{"first bit of a word missing", chunks(56, 16, 72, 8), [][2]int{{56, 64}, {65, 80}}},
		{"stretch over three words", chunks(10, 60, 70, 60, 130, 60), [][2]int{{10, 127}, {128, 190}}},
		{"word-long chunks", chunks(0, 64, 64, 64, 128, 64), [][2]int{{0, 64}, {128, 192}}},
		{"single iterations", chunks(62, 1, 63, 1, 64, 1, 65, 1), [][2]int{{63, 64}, {65, 66}}},
	} {
		checkRetire(t, c.name, ledgerMaster(256, c.received...), c.out)
	}
}

// TestRetireMatchesDeliveredRandom draws ledgers at random — contiguous
// batches with gaps, a few chunks swapped out of grant order, sizes that
// cross word edges, and half of them of one chunk size, so that they
// book as runs — over ledgers received in random patches, whole and
// partial.
func TestRetireMatchesDeliveredRandom(t *testing.T) {
	const n = 1024
	rng := rand.New(rand.NewPCG(40, 1))
	for trial := range 2000 {
		var out []sched.Assignment
		fixed := rng.IntN(2) * (1 + rng.IntN(40)) // half the ledgers are runs of one chunk size
		for at := rng.IntN(8); at < n; {
			size := 1 + rng.IntN(min(n-at, 1+rng.IntN(100)))
			if fixed > 0 {
				size = min(fixed, n-at)
			}
			out = append(out, sched.Assignment{Start: at, Size: size})
			at += size
			if rng.IntN(4) == 0 { // a gap: another worker's chunks
				at += 1 + rng.IntN(70)
			}
			if len(out) > 40 {
				break
			}
		}
		for range rng.IntN(4) { // requeued chunks, granted out of order
			i, j := rng.IntN(len(out)), rng.IntN(len(out))
			out[i], out[j] = out[j], out[i]
		}
		m := ledgerMaster(n)
		for _, a := range out {
			switch rng.IntN(4) {
			case 0: // delivered
				m.flip(a.Start, a.End())
			case 1: // partly: a patch anywhere in it
				lo := a.Start + rng.IntN(a.Size)
				m.flip(lo, lo+1+rng.IntN(a.End()-lo))
			case 2: // all but one iteration
				miss := a.Start + rng.IntN(a.Size)
				m.flip(a.Start, miss)
				m.flip(miss+1, a.End())
			}
		}
		for range rng.IntN(6) { // other workers' deliveries, gaps included
			lo := rng.IntN(n)
			m.flip(lo, lo+1+rng.IntN(min(n-lo, 130)))
		}
		if checkRetire(t, fmt.Sprint("trial ", trial), m, out); t.Failed() {
			return
		}
	}
}
