package exec

import (
	"fmt"
	"math"
	"testing"
	"time"

	"loopsched/internal/telemetry"
)

// TestWorkerClockReads pins how often the slave loop reads its clock on
// a fine loop: 16 384 CSS(4)-sized chunks of 10 ns iterations behind a
// 3 µs round trip, with no window, serial and pipelined, over the
// scripted link — which also holds every refill to the time and depth
// rules on the way. A synchronous request reads the clock twice (as it
// leaves, as its answer lands) and a prefetch four times (before and
// after its send, as the wait for its answer starts and as it ends).
// Without a telemetry bus nothing else does but the prefetch test's rate
// samples, each at least sampleSeconds of kernel time after the one
// before — and the first, of the first iteration — so no chunk reads the
// clock, and a serial loop reads it only per request. With a bus every
// chunk adds exactly one read, its close, so that ChunkCompleted carries
// the chunk's own seconds.
func TestWorkerClockReads(t *testing.T) {
	const n, size = 1 << 16, 4
	const cost, rtt = 10 * time.Nanosecond, 3005 * time.Nanosecond // the round trip is 300.5 iterations
	for _, prefetch := range []bool{false, true} {
		for _, traced := range []bool{false, true} {
			t.Run(fmt.Sprintf("prefetch=%v/bus=%v", prefetch, traced), func(t *testing.T) {
				checkClockReads(t, prefetch, traced, n, size, cost, rtt)
			})
		}
	}
}

func checkClockReads(t *testing.T, prefetch, traced bool, n, size int, cost, rtt time.Duration) {
	f := &fakeLink{
		t: t, script: linkScripts[0], prefetch: prefetch, cost: cost, rtt: rtt,
		n: n, size: size, computed: make([]int, n), shipped: make([]int, n),
	}
	reads := 0
	w := Worker{ID: 1, Kernel: f.kernel, clock: func() time.Time { reads++; return f.clock() }}
	if traced {
		w.Telemetry = telemetry.NewBus(0)
		defer w.Telemetry.Close()
	}
	if err := w.runWindow(f, 0, prefetch, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if f.computed[i] != 1 || f.shipped[i] != 1 {
			t.Fatalf("iteration %d computed %d times, shipped %d times", i, f.computed[i], f.shipped[i])
		}
	}
	if want := (time.Duration(n) * cost).Seconds(); math.Abs(f.comp-want) > 1e-12 {
		t.Errorf("requests reported %.9fs of kernel time, the kernel ran %.9fs", f.comp, want)
	}
	chunks, sync := n/size, f.requests-f.prefetchs
	if prefetch && f.prefetchs == 0 {
		t.Fatal("no prefetch: the loop never hid a round trip")
	}
	perRequest := 2*sync + 4*f.prefetchs
	samples := 0 // the most rate samples the prefetch test may take
	if prefetch {
		samples = 1 + int(time.Duration(n)*cost/time.Duration(sampleSeconds*1e9))
	}
	if traced {
		// A chunk is far shorter than sampleSeconds, so with every chunk
		// booked as it closes the only sample left is the first.
		first := 0
		if prefetch {
			first = 1
		}
		if want := chunks + first + perRequest; reads != want {
			t.Errorf("%d clock reads over %d chunks, %d synchronous requests and %d prefetches; want %d",
				reads, chunks, sync, f.prefetchs, want)
		}
	} else if reads < perRequest || reads > perRequest+samples {
		t.Errorf("%d clock reads over %d synchronous requests and %d prefetches; want %d plus at most %d samples",
			reads, sync, f.prefetchs, perRequest, samples)
	}
	t.Logf("%d clock reads: %d chunks, %d requests (%d prefetches)", reads, chunks, f.requests, f.prefetchs)
}
