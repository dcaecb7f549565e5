package service

import (
	"math"
	"testing"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// askWorker is fleet worker 0 of a one-worker scheduler, its latest
// request having taken trip seconds.
func askWorker(trip float64) *fleetWorker {
	s := &Scheduler{opts: Options{Workers: fleet(1)}, p: 1, virtual: []float64{1}}
	return &fleetWorker{s: s, scale: 1, trip: trip}
}

// TestFleetAsk pins how deep a fleet worker asks, as a table: the depth
// rule over fleetTrips request times at the worker's pace on the attempt
// asked, or DefaultStealWindow while that attempt has measured nothing.
func TestFleetAsk(t *testing.T) {
	a := &attempt{paces: []pace{{perIter: 20e-9, size: 4}}} // job A, measured
	b := &attempt{paces: []pace{{}}}                        // job B, nothing measured
	slow := &attempt{paces: []pace{{perIter: 1e-6, size: 8}}}
	cases := []struct {
		name string
		trip float64
		att  *attempt
		want int
	}{
		{"a measured job", 2e-6, a, 100}, // 4 × 2 µs at 20 ns: 400 iterations
		{"a new attempt is unmeasured", 2e-6, b, exec.DefaultStealWindow},
		{"a slow body asks a chunk", 2e-6, slow, 1}, // 8 iterations: one chunk
		{"a slower request asks more", 4e-6, a, 200},
		{"a request of ms is asked whole", 1e-3, a, 50000}, // 4 × 1 ms at 20 ns: 200 000 iterations
	}
	for _, c := range cases {
		if got := askWorker(c.trip).ask(c.att); got != c.want {
			t.Errorf("%s: asks %d chunks, want %d", c.name, got, c.want)
		}
	}
}

// TestFleetPaceIsPerAttempt runs one batch of job A through a worker's
// own request and run and checks that it measured A only: job B's
// attempt is still unmeasured, so A's rate never sizes B's ask.
func TestFleetPaceIsPerAttempt(t *testing.T) {
	s := &Scheduler{opts: Options{Workers: fleet(1)}, p: 1, virtual: []float64{1}}
	start := func(id int) *attempt {
		j := &Job{s: s, id: id, tenant: &tenant{id: 1}, spec: JobSpec{
			Scheme: sched.CSSScheme{K: 4}, Workload: workload.Uniform{N: 1 << 12}, Body: func(int) {},
		}}
		m, err := exec.New(exec.Config{Scheme: j.spec.Scheme, Iterations: j.spec.Workload.Len(), Workers: 1, InitACP: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		att := &attempt{job: j, m: m, links: []exec.Link{m.Link()}, paces: make([]pace, 1)}
		j.att.Store(att)
		j.state.Store(int32(StateRunning))
		return att
	}
	a, b := start(1), start(2)
	w := &fleetWorker{s: s, scale: 1, now: time.Now()}
	if !w.request(a, w.ask(a)) {
		t.Fatal("job A granted nothing")
	}
	w.run(a)
	if p := a.paces[0]; p.size != 4 || p.perIter <= 0 {
		t.Fatalf("after a batch of A the worker's pace there is %+v, want a measured CSS(4) chunk", p)
	}
	if w.trip <= 0 {
		t.Fatalf("after a batch the worker's request time is %v, want it measured", w.trip)
	}
	if p := b.paces[0]; p != (pace{}) {
		t.Fatalf("a batch of A wrote B's pace: %+v", p)
	}
	if got := w.ask(b); got != exec.DefaultStealWindow {
		t.Errorf("B asks %d chunks after a batch of A, want the unmeasured %d", got, exec.DefaultStealWindow)
	}
}

// TestFleetBatchBoundsPreemption pins the preemption bound of
// docs/SERVICE.md "Fairness and preemption" on the ask rule alone,
// with scripted request times and paces and no clock. A higher-priority
// admission waits for at most one batch per worker; a batch's predicted
// time — its chunks at the worker's pace — is under fleetTrips request
// times plus one chunk, and (below what a frame can carry, wire.MaxFrame
// chunks: the clamp Ask answers for an infinite trip) at least
// fleetTrips request times, so the worker idles for at most about
// 1/(fleetTrips+1) of its time. (An attempt's first batch is
// TestFleetAsk's case.)
func TestFleetBatchBoundsPreemption(t *testing.T) {
	ceiling := exec.Ask(math.Inf(1), 0, 1)
	for _, trip := range []float64{100e-9, 1e-6, 10e-6, 1e-3} {
		for _, perIter := range []float64{1e-9, 20e-9, 1e-6, 100e-6} {
			for _, size := range []int{1, 4, 64, 1000} {
				att := &attempt{paces: []pace{{perIter: perIter, size: size}}}
				chunk := float64(size) * perIter
				n := askWorker(trip).ask(att)
				batch := float64(n) * chunk
				const eps = 1e-9
				if n < 1 || n > ceiling {
					t.Errorf("trip %v, %v an iteration, chunks of %d: asks %d chunks, want 1..%d", trip, perIter, size, n, ceiling)
				}
				if limit := fleetTrips*trip + chunk; batch > limit*(1+eps) {
					t.Errorf("trip %v, %v an iteration, chunks of %d: a batch of %d chunks lasts %v, over the bound %v",
						trip, perIter, size, n, batch, limit)
				}
				if n < ceiling && batch < fleetTrips*trip*(1-eps) {
					t.Errorf("trip %v, %v an iteration, chunks of %d: a batch of %d chunks lasts %v, under %d request times",
						trip, perIter, size, n, batch, fleetTrips)
				}
			}
		}
	}
}
