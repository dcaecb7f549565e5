package service

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// TestWeightedFairShare saturates the fleet with two tenants whose
// jobs carry 2:1 fairness weights and checks that the arbiter's
// granted-iteration totals track the weights. CSS is a fixed-chunk
// scheme, so every refill costs the same and deficit-round-robin's
// long-run ratio is the weight ratio; the tolerance absorbs the
// bounded per-round overdraft (less than a chunk past the allowance).
func TestWeightedFairShare(t *testing.T) {
	s := newTestScheduler(t, Options{
		Workers: fleet(1, 1, 1, 1),
		Quantum: 32,
	})
	ctx := testCtx(t)
	// The bodies count what both jobs run and close reached once, from
	// the moment both compete, target iterations have run: the window
	// ends on that signal, not on a poll.
	const target = 120_000
	var (
		ran     atomic.Int64
		goal    atomic.Int64
		once    sync.Once
		reached = make(chan struct{})
	)
	goal.Store(math.MaxInt64)
	body := func(int) {
		if ran.Add(1) >= goal.Load() {
			once.Do(func() { close(reached) })
		}
	}
	// Each loop outlasts any window the test can see, so that neither
	// job runs dry while the two compete: a fleet on empty bodies runs
	// a 2^21-iteration loop in milliseconds, as long as the test's own
	// goroutine may wait for a CPU on a loaded box.
	submit := func(tenant string, weight float64) *Job {
		j, err := s.Submit(ctx, JobSpec{
			Scheme:   sched.CSSScheme{K: 4},
			Workload: workload.Uniform{N: 1 << 26},
			Body:     body,
			Tenant:   tenant,
			Weight:   weight,
		})
		if err != nil {
			t.Fatalf("Submit %s: %v", tenant, err)
		}
		return j
	}
	heavy := submit("heavy", 2)
	light := submit("light", 1)
	// Count from the moment both jobs compete: on a loaded box the
	// admission goroutine can trail the spinning fleet by milliseconds,
	// and whatever heavy is granted while it runs alone says nothing
	// about the arbiter's ratio.
	waitState(t, heavy, StateRunning)
	waitState(t, light, StateRunning)
	gh0, gl0 := heavy.Granted(), light.Granted()

	// Let the fleet run a meaningful share of both loops, then snapshot
	// what it granted. 120k iterations is far past DRR's warm-up.
	goal.Store(ran.Load() + target)
	select {
	case <-reached:
	case <-time.After(20 * time.Second):
		t.Fatalf("fleet too slow: ran %d of %d iterations", ran.Load()-(goal.Load()-target), target)
	}
	gh, gl := heavy.Granted()-gh0, light.Granted()-gl0
	heavy.Cancel()
	light.Cancel()

	if gl == 0 {
		t.Fatal("light tenant starved: 0 iterations granted")
	}
	ratio := float64(gh) / float64(gl)
	t.Logf("granted ratio heavy:light = %.3f (heavy=%d light=%d)", ratio, gh, gl)
	if ratio < 1.8 || ratio > 2.2 {
		t.Errorf("granted ratio heavy:light = %.3f (heavy=%d light=%d), want 2.0 within 10%%", ratio, gh, gl)
	}

	// Both cancellations leave the fleet serviceable.
	after, err := s.Submit(ctx, uniformSpec(500, nil))
	if err != nil {
		t.Fatalf("Submit after cancels: %v", err)
	}
	if _, err := after.Wait(ctx); err != nil {
		t.Fatalf("job after cancels: %v", err)
	}
}

// TestStrictPriority pins the fleet with a saturating low-priority job
// and checks a later high-priority job's backlog is granted ahead of
// it: while the high-priority loop still has work, the low class gets
// essentially no new credit. Both bodies sleep so grant rates are slow
// enough to observe; the baseline is taken only once the high job is
// seen running, so admission-latency grants don't count against it.
func TestStrictPriority(t *testing.T) {
	s := newTestScheduler(t, Options{Workers: fleet(1, 1), Quantum: 16})
	ctx := testCtx(t)
	low, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: 1 << 21},
		Body:     func(int) { time.Sleep(5 * time.Microsecond) },
		Priority: 0,
	})
	if err != nil {
		t.Fatalf("Submit low: %v", err)
	}
	waitState(t, low, StateRunning)

	const hiN = 5000
	high, err := s.Submit(ctx, JobSpec{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: hiN},
		Body:     func(int) { time.Sleep(20 * time.Microsecond) },
		Priority: 5,
	})
	if err != nil {
		t.Fatalf("Submit high: %v", err)
	}
	waitState(t, high, StateRunning)
	base := low.Granted()
	if _, err := high.Wait(ctx); err != nil {
		t.Fatalf("high: %v", err)
	}
	lowDuring := low.Granted() - base
	low.Cancel()
	// While the high-priority job had backlog, low could only be
	// granted by a refill already in flight at admission or during the
	// high job's drained tail — a few batches, not a share.
	if lowDuring > 2000 {
		t.Errorf("low-priority job was granted %d iterations while a high-priority backlog existed (high ran %d)", lowDuring, hiN)
	}
}
