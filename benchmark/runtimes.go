package main

import (
	"context"
	"fmt"
	"time"

	"loopsched"
)

// runtimePath is one of the eight ways the library can run a loop,
// with every knob that selects it pinned.
type runtimePath struct {
	name      string
	backend   loopsched.Backend
	engine    string
	transport string
	ledger    string
	shards    int  // > 0 runs the two-level runtime
	service   bool // Submit+Wait on a warm Scheduler fleet
}

var runtimes = []runtimePath{
	{name: "local_channel", backend: loopsched.BackendLocal, engine: loopsched.EngineChannel, ledger: "off"},
	{name: "local_steal", backend: loopsched.BackendLocal, engine: loopsched.EngineSteal, ledger: "off"},
	{name: "rpc_binary", backend: loopsched.BackendRPC, transport: "binary", ledger: "off"},
	{name: "rpc_ledger", backend: loopsched.BackendRPC, transport: "binary", ledger: "on"},
	{name: "rpc_gob", backend: loopsched.BackendRPC, transport: "netrpc", ledger: "off"},
	{name: "hier_rpc", backend: loopsched.BackendRPC, transport: "binary", ledger: "off", shards: 2},
	{name: "mp", backend: loopsched.BackendMP, ledger: "off"},
	{name: "service", service: true},
}

// conns is how many TCP connections one Run on the path opens: one per
// worker, plus one per submaster to the root.
func (r runtimePath) conns(p int) int {
	switch {
	case r.backend != loopsched.BackendRPC:
		return 0
	case r.shards > 0:
		return p + r.shards
	}
	return p
}

// fleet is what one workload's runs share: the emulated machines and,
// for the service path, the scheduler started once per workload.
type fleet struct {
	scales []int
	specs  []*loopsched.WorkerSpec
	sched  *loopsched.Scheduler
}

// startFleet builds the worker specs and starts the warm scheduler.
// tel, when non-nil, is the traced pass's session.
func startFleet(w workload, p int, tel *loopsched.Telemetry) (*fleet, error) {
	f := &fleet{scales: w.workScales(p)}
	f.specs = workerSpecs(f.scales)
	s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{
		Workers:      workerSpecs(f.scales),
		CreditWindow: 0,
		Telemetry:    tel,
	})
	if err != nil {
		return nil, fmt.Errorf("starting the service fleet: %w", err)
	}
	f.sched = s
	return f, nil
}

func (f *fleet) close() {
	if f.sched != nil {
		_ = f.sched.Close() // the fleet is idle; nothing to lose
	}
}

// runResult is what the caller of one cell repetition sees.
type runResult struct {
	tp      float64 // wall-clock seconds of the public call(s)
	reports []loopsched.Report
	jobs    []int // service job ids, parallel to the loops
	err     error
}

func (r runResult) chunks() int {
	n := 0
	for _, rep := range r.reports {
		n += rep.Chunks
	}
	return n
}

// run executes every loop of the instance once through the path and
// times it as the caller sees it: loopsched.Run call to return for the
// Run-based paths (loops one after another), first Submit to last Wait
// for the service path (all loops submitted at once). tp is the
// makespan of the batch. onLoop, when non-nil, is told which loop is
// about to run on the sequential paths.
func (r runtimePath) run(ctx context.Context, f *fleet, loops []*loop, tel *loopsched.Telemetry, onLoop func(j int)) runResult {
	res := runResult{reports: make([]loopsched.Report, 0, len(loops))}
	kernels := make([]loopsched.Kernel, len(loops))
	for j, l := range loops {
		kernels[j] = l.kernel()
	}
	if r.service {
		jobs := make([]*loopsched.Job, 0, len(loops))
		t0 := time.Now()
		for j, l := range loops {
			k := kernels[j]
			job, err := f.sched.Submit(ctx, loopsched.JobSpec{
				Scheme:   l.scheme,
				Workload: loopsched.Uniform{N: l.n},
				Body:     func(i int) { k(i) },
				Tenant:   l.tenant,
			})
			if err != nil {
				res.err = fmt.Errorf("submit loop %d: %w", j, err)
				break
			}
			jobs = append(jobs, job)
		}
		for j, job := range jobs {
			rep, err := job.Wait(ctx)
			if err != nil && res.err == nil {
				res.err = fmt.Errorf("wait loop %d: %w", j, err)
			}
			res.reports = append(res.reports, rep)
			res.jobs = append(res.jobs, job.ID())
		}
		res.tp = time.Since(t0).Seconds()
		return res
	}
	specs := make([]loopsched.RunSpec, len(loops))
	for j, l := range loops {
		specs[j] = r.spec(f, l, kernels[j], tel)
	}
	t0 := time.Now()
	for j := range loops {
		if onLoop != nil {
			onLoop(j)
		}
		rep, err := loopsched.Run(ctx, specs[j])
		res.reports = append(res.reports, rep)
		if err != nil {
			res.err = fmt.Errorf("run loop %d: %w", j, err)
			break
		}
	}
	res.tp = time.Since(t0).Seconds()
	return res
}

// spec pins every knob of a Run-based path. The scheme is passed
// through unwrapped: a wrapper would hide the FixedChunker /
// StepDeterministic / feedback interfaces and move the run onto a
// different grant path.
func (r runtimePath) spec(f *fleet, l *loop, k loopsched.Kernel, tel *loopsched.Telemetry) loopsched.RunSpec {
	s := loopsched.RunSpec{
		Scheme:       l.scheme,
		Workload:     loopsched.Uniform{N: l.n},
		Backend:      r.backend,
		Workers:      f.specs,
		Kernel:       k,
		Pipeline:     true,
		Transport:    r.transport,
		CreditWindow: 0,
		Ledger:       r.ledger,
		LocalEngine:  r.engine,
		Telemetry:    tel,
	}
	if r.shards > 0 {
		s.Hierarchy = &loopsched.Hierarchy{Shards: r.shards}
	}
	return s
}

// check verifies one repetition: no error, every report covering its
// loop, exactly-once execution and reference checksums.
func (res runResult) check(f *fleet, loops []*loop) error {
	if res.err != nil {
		return res.err
	}
	if len(res.reports) != len(loops) {
		return fmt.Errorf("%d reports for %d loops", len(res.reports), len(loops))
	}
	for j, l := range loops {
		if got := res.reports[j].Iterations; got != l.n {
			return fmt.Errorf("loop %d: Report.Iterations = %d, want %d", j, got, l.n)
		}
		if err := l.verify(f.scales); err != nil {
			return fmt.Errorf("loop %d: %w", j, err)
		}
	}
	return nil
}
