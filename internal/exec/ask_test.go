package exec

import (
	"math"
	"math/rand"
	"testing"

	"loopsched/internal/wire"
)

// TestAskIsTheDepthRule pins the depth rule (DESIGN.md §9) as a table:
// trip iterations of round trip, held iterations still to run, chunks of
// size iterations.
func TestAskIsTheDepthRule(t *testing.T) {
	cases := []struct {
		name       string
		trip, held float64
		size       int
		want       int
	}{
		{"unmeasured", 0, 0, 4, DefaultStealWindow},
		{"unmeasured, work held", 0, 100, 4, DefaultStealWindow},
		{"a negative trip is unmeasured", -5, 0, 4, DefaultStealWindow},
		{"NaN is unmeasured", math.NaN(), 0, 4, DefaultStealWindow},
		{"one trip, nothing held", 100, 0, 4, 25},
		{"rounds up to whole chunks", 101, 0, 4, 26},
		{"held within a trip leaves the ask", 100, 60, 4, 25},
		{"held up to a trip leaves the ask", 100, 100, 4, 25},
		{"held beyond a trip lowers it", 100, 150, 4, 13},
		{"held of two trips asks the floor", 100, 200, 4, 1},
		{"held far beyond a trip asks the floor", 3, 100, 4, 1},
		{"a trip below one chunk asks one", 0.001, 0, 4, 1},
		{"large chunks ask one", 100, 0, 1000, 1},
		{"a deep trip is asked whole", 1e9, 0, 4, 250_000_000},
		{"a trip past any frame asks what a frame carries", 1e12, 0, 4, wire.MaxFrame},
		{"an infinite trip asks what a frame carries", math.Inf(1), 0, 4, wire.MaxFrame},
		// The scheduler fleet's case: fleetTrips = 4 round trips of 2 µs
		// at 20 ns an iteration, nothing held (the fleet does not
		// prefetch).
		{"the fleet: 4 trips of 2µs at 20ns", 4 * 2e-6 / 20e-9, 0, 4, 100},
		{"the fleet: 4 trips of 2µs at 1ns", 4 * 2e-6 / 1e-9, 0, 4, 2000},
		{"the fleet: 4 trips of 2µs at 10µs", 4 * 2e-6 / 10e-6, 0, 4, 1},
	}
	for _, c := range cases {
		if got := Ask(c.trip, c.held, c.size); got != c.want {
			t.Errorf("%s: Ask(%v, %v, %d) = %d, want %d", c.name, c.trip, c.held, c.size, got, c.want)
		}
	}
}

// TestAskMatchesTheWindowLoop holds Ask to the expression runWindow's
// ask inlined before the rule became a function, over a seeded spread of
// measured round trips, rates, held work and chunk sizes.
func TestAskMatchesTheWindowLoop(t *testing.T) {
	inlined := func(rtt float64, ran int, busy float64, held, size int) int {
		if rtt == 0 || ran == 0 {
			return DefaultStealWindow
		}
		trip := rtt * float64(ran) / busy
		need := trip - max(0, float64(held)-trip)
		return int(min(max(1, math.Ceil(need/float64(size))), wire.MaxFrame))
	}
	rng := rand.New(rand.NewSource(41))
	for range 100000 {
		rtt := 0.0
		if rng.Intn(10) > 0 {
			rtt = math.Exp(rng.Float64()*12 - 16) // 0.1 µs – 16 ms
		}
		ran := rng.Intn(3) * rng.Intn(1<<16)
		busy := float64(ran) * math.Exp(rng.Float64()*10-22) // 0.3 ns – 6 µs an iteration
		held, size := rng.Intn(4096), 1+rng.Intn(64)
		trip := 0.0
		if rtt > 0 && ran > 0 {
			trip = rtt * float64(ran) / busy
		}
		if got, want := Ask(trip, float64(held), size), inlined(rtt, ran, busy, held, size); got != want {
			t.Fatalf("rtt %v, ran %d, busy %v, held %d, size %d: Ask says %d, the window loop asked %d",
				rtt, ran, busy, held, size, got, want)
		}
	}
}
