package service

import (
	"sort"
	"testing"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
	"loopsched/internal/workload"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations by
// TestHotPathGuardTable. One guard drives a fleet worker's whole step —
// a request that delivers the last batch and is granted the next, then
// that batch — because the two only occur in turn.
var hotGuards = map[string]func(t *testing.T){
	"(*fleetWorker).ask":     fleetStepGuard,
	"(*fleetWorker).request": fleetStepGuard,
	"(*fleetWorker).run":     fleetStepGuard,
}

// TestHotPathGuardTable pins hotGuards to the annotation set.
func TestHotPathGuardTable(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	missing, stale, err := hotpath.TableErrors(".", names)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range missing {
		t.Errorf("annotated hot function %s has no alloc guard; add a hotGuards entry", name)
	}
	for _, name := range stale {
		t.Errorf("hotGuards entry %s matches no annotated function; remove it or annotate", name)
	}
}

// TestHotPathAllocGuards runs every guard in the table.
func TestHotPathAllocGuards(t *testing.T) {
	names := make([]string, 0, len(hotGuards))
	for name := range hotGuards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, hotGuards[name])
	}
}

// fleetStepGuard pins a fleet worker's steady-state step at zero
// allocations with telemetry off: the ask, sized by the worker's own
// rule; a request over its memory link to one job's
// master that delivers the last batch's results and is granted the next
// batch of CSS(4) chunks; then the run of that batch, which measures the
// worker's trip and pace. The attempt is built as startLocked builds it,
// and the worker is driven by hand, outside any fleet, on a job that
// outlasts the guard.
func fleetStepGuard(t *testing.T) {
	s := &Scheduler{opts: Options{Workers: fleet(1)}, p: 1, virtual: []float64{1}}
	j := &Job{s: s, id: 1, tenant: &tenant{id: 1}, spec: JobSpec{
		Scheme: sched.CSSScheme{K: 4}, Workload: workload.Uniform{N: 1 << 24}, Body: func(int) {},
	}}
	m, err := exec.New(exec.Config{Scheme: j.spec.Scheme, Iterations: j.spec.Workload.Len(), Workers: 1, InitACP: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	att := &attempt{job: j, m: m, links: []exec.Link{m.Link()}, paces: make([]pace, 1)}
	j.att.Store(att)
	j.state.Store(int32(StateRunning))
	w := &fleetWorker{s: s, scale: 1, now: time.Now()}
	step := func() {
		credits := w.ask(att)
		if !w.request(att, credits) || w.rep.Chunks() != credits {
			panic("fleet step guard: short grant")
		}
		w.run(att)
	}
	step() // sizes the buffers on both sides of the link
	step()
	if att.paces[0].size != 4 {
		t.Fatalf("after two steps the worker's pace is %+v, want a measured CSS(4) chunk", att.paces[0])
	}
	if avg := testing.AllocsPerRun(200, step); avg > 0 {
		t.Errorf("a fleet worker's step allocates %.1f objects, want 0", avg)
	}
}
