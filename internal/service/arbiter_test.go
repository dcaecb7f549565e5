package service

import (
	"math"
	"testing"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// arbiterJob is a running CSS(4) job of n iterations with the given
// weight and priority, whose attempt every one of p fleet workers has
// measured at perIter seconds an iteration: a job the arbiter can pick
// and the workers can ask of, with no admission loop and no fleet.
func arbiterJob(t *testing.T, s *Scheduler, id int, weight float64, priority, n int, perIter []float64) *Job {
	t.Helper()
	j := &Job{s: s, id: id, tenant: &tenant{id: id}, spec: JobSpec{
		Scheme: sched.CSSScheme{K: 4}, Workload: workload.Uniform{N: n}, Body: func(int) {},
		Weight: weight, Priority: priority,
	}}
	acps := make([]int, s.p)
	for w := range acps {
		acps[w] = 1
	}
	m, err := exec.New(exec.Config{Scheme: j.spec.Scheme, Iterations: n, Workers: s.p, InitACP: acps})
	if err != nil {
		t.Fatal(err)
	}
	att := &attempt{job: j, m: m, links: make([]exec.Link, s.p), paces: make([]pace, s.p)}
	for w := range att.links {
		att.links[w] = m.Link()
		att.paces[w] = pace{perIter: perIter[w], size: 4}
	}
	j.att.Store(att)
	j.state.Store(int32(StateRunning))
	return j
}

// TestArbiterChargesAtThePick scripts the arbiter with no goroutines:
// four fleet workers take turns to pick, ask and be granted (the job's
// master over its memory link, nothing computed), against two jobs
// weighted 2:1 in one priority class. The pick charges a worker's
// allowance at once, so four picks with no grant between them alternate
// between the jobs instead of all spending the heavy job's credit; every
// contested grant overdraws its allowance by at most one chunk, and a
// worker whose measured ask is under its allowance pays the rest back,
// so the granted totals hold the weight ratio to a few chunks. A job
// alone in its class — the other one in a class below — is never capped:
// its workers ask what the depth rule alone asks.
func TestArbiterChargesAtThePick(t *testing.T) {
	const p, n, size = 4, 1 << 20, 4
	s := &Scheduler{opts: Options{Workers: fleet(1, 1, 1, 1)}, p: p, quantum: 32, virtual: []float64{1, 1, 1, 1}}
	// Workers 0–2 ask past any allowance (4 trips of 2 µs at 20 ns an
	// iteration: 100 chunks); worker 3's body is slow enough that it asks
	// one chunk, under its allowance.
	perIter := []float64{20e-9, 20e-9, 20e-9, 2e-6}
	heavy := arbiterJob(t, s, 1, 2, 0, n, perIter)
	light := arbiterJob(t, s, 2, 1, 0, n, perIter)
	s.active = []*Job{heavy, light}
	workers := make([]*fleetWorker, p)
	for i := range workers {
		workers[i] = &fleetWorker{s: s, id: i, scale: 1, now: time.Unix(0, 0), trip: 2e-6}
	}

	// Four picks before any grant: heavy, light, and a new round's heavy
	// and light, each charged its whole deficit. The fast workers ask for
	// the allowance in whole chunks, the slow one for its one chunk.
	picked := make([]*attempt, p)
	for i, want := range []struct {
		job         *Job
		allow       float64
		ask, slowly int
	}{{heavy, 64, 16, 1}, {light, 32, 8, 1}, {heavy, 64, 16, 1}, {light, 32, 8, 1}} {
		att, _, ok := workers[i].pick()
		if !ok || att == nil || att.job != want.job || workers[i].allow != want.allow {
			t.Fatalf("pick %d: attempt %p, allowance %v; want job %d's, allowance %v", i, att, workers[i].allow, want.job.id, want.allow)
		}
		if got := workers[i].ask(att); i < 3 && got != want.ask || i == 3 && got != want.slowly {
			t.Fatalf("pick %d: worker %d asks %d chunks on an allowance of %v", i, i, got, want.allow)
		}
		picked[i] = att
	}

	for step := 0; step < 4000; step++ {
		w, att := workers[step%p], (*attempt)(nil)
		if step < p {
			att = picked[step]
		} else if att, _, _ = w.pick(); att == nil {
			t.Fatalf("step %d: nothing picked", step)
		}
		if w.allow <= 0 {
			t.Fatalf("step %d: an uncapped pick in a contested class", step)
		}
		if !w.take(att) {
			t.Fatalf("step %d: job %d granted nothing", step, att.job.id)
		}
		if over := float64(w.iters) - w.allow; over > size {
			t.Fatalf("step %d: worker %d was granted %d iterations of job %d on an allowance of %v, %v past it",
				step, w.id, w.iters, att.job.id, w.allow, over)
		}
	}
	gh, gl := heavy.Granted(), light.Granted()
	if ratio := float64(gh) / float64(gl); math.Abs(ratio-2) > 0.01 {
		t.Errorf("granted ratio heavy:light = %.4f (heavy=%d light=%d), want 2 to a few chunks", ratio, gh, gl)
	}

	// Light drops to a class below: heavy is alone in its class.
	light.spec.Priority = -1
	for step := 0; step < 2*p; step++ {
		w := workers[step%p]
		att, _, ok := w.pick()
		if !ok || att != heavy.att.Load() {
			t.Fatalf("alone, step %d: picked attempt %p, want heavy's", step, att)
		}
		pc := att.paces[w.id]
		want := exec.Ask(fleetTrips*w.trip/pc.perIter, 0, pc.size)
		if w.allow != 0 || w.ask(att) != want {
			t.Fatalf("alone, step %d: allowance %v, ask %d; want no cap and the depth rule's %d", step, w.allow, w.ask(att), want)
		}
		if !w.take(att) || w.iters != want*size {
			t.Fatalf("alone, step %d: granted %d iterations, want %d", step, w.iters, want*size)
		}
	}
}
