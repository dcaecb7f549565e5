package loopsched_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched"
)

// runWorkers builds a small heterogeneous worker set (two full-speed,
// two half-speed) for the executing backends.
func runWorkers() []*loopsched.WorkerSpec {
	return []*loopsched.WorkerSpec{
		{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 2}, {WorkScale: 2},
	}
}

// executingBackends are the backends that actually run the body (the
// simulator only models it).
var executingBackends = []loopsched.Backend{
	loopsched.BackendLocal, loopsched.BackendRPC, loopsched.BackendMP,
}

// TestRunSameSpecEveryBackend is the API's core promise: the same
// (scheme, workload) pair runs unchanged on every backend through the
// one entry point.
func TestRunSameSpecEveryBackend(t *testing.T) {
	const n = 1500
	scheme, err := loopsched.LookupScheme("DTSS")
	if err != nil {
		t.Fatal(err)
	}
	w := loopsched.Uniform{N: n, C: 1}

	t.Run("sim", func(t *testing.T) {
		rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
			Scheme:   scheme,
			Workload: w,
			Backend:  loopsched.BackendSim,
			Cluster:  loopsched.PaperCluster(8, false),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Iterations != n || rep.Tp <= 0 {
			t.Fatalf("sim report: %d iterations, Tp=%g", rep.Iterations, rep.Tp)
		}
	})

	for _, backend := range executingBackends {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			var hits = make([]int32, n)
			rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
				Scheme:   scheme,
				Workload: w,
				Backend:  backend,
				Workers:  runWorkers(),
				Body: func(i int) {
					atomic.AddInt32(&hits[i], 1)
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Iterations != n {
				t.Fatalf("report claims %d of %d iterations", rep.Iterations, n)
			}
			for i := range hits {
				if atomic.LoadInt32(&hits[i]) == 0 {
					t.Fatalf("iteration %d never executed", i)
				}
			}
			if rep.Chunks == 0 {
				t.Fatal("report has no chunks")
			}
		})
	}
}

// TestRunSpecTraceEveryBackend: RunSpec.Trace alone — no telemetry
// session, no SimParams.Trace — records every iteration exactly once on
// every backend, the simulator's flat and hierarchical runs included.
func TestRunSpecTraceEveryBackend(t *testing.T) {
	const n = 600
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	w := loopsched.Uniform{N: n, C: 1}
	specs := map[string]loopsched.RunSpec{
		"sim":      {Backend: loopsched.BackendSim, Cluster: loopsched.PaperCluster(4, false)},
		"sim-hier": {Backend: loopsched.BackendSim, Cluster: loopsched.PaperCluster(4, false), Hierarchy: &loopsched.Hierarchy{Shards: 2}},
	}
	for _, backend := range executingBackends {
		specs[string(backend)] = loopsched.RunSpec{Backend: backend, Workers: runWorkers(), Body: func(int) {}}
	}
	for name, spec := range specs {
		t.Run(name, func(t *testing.T) {
			tr := &loopsched.Trace{}
			spec.Scheme, spec.Workload, spec.Trace = scheme, w, tr
			if _, err := loopsched.Run(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
			if err := tr.CoverageError(n); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestRunHierarchical drives the two-level runtime through the same
// entry point on every backend that supports it and checks the
// per-shard breakdown is coherent.
func TestRunHierarchical(t *testing.T) {
	const n = 1500
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	w := loopsched.Uniform{N: n, C: 1}
	h := &loopsched.Hierarchy{Shards: 2}

	check := func(t *testing.T, rep loopsched.Report, err error, p int) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Iterations != n {
			t.Fatalf("report claims %d of %d iterations", rep.Iterations, n)
		}
		if rep.Workers != p || len(rep.PerWorker) != p {
			t.Fatalf("report describes %d workers in %d entries, want %d", rep.Workers, len(rep.PerWorker), p)
		}
		if len(rep.Shards) != 2 {
			t.Fatalf("want 2 shards in report, got %d", len(rep.Shards))
		}
		sum := 0
		for _, s := range rep.Shards {
			sum += s.Iterations
			if s.Fetches == 0 {
				t.Fatalf("shard %d reports no root fetches", s.Shard)
			}
		}
		if sum != n {
			t.Fatalf("shard iterations sum to %d, want %d", sum, n)
		}
	}

	t.Run("sim", func(t *testing.T) {
		rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
			Scheme:    scheme,
			Workload:  w,
			Backend:   loopsched.BackendSim,
			Cluster:   loopsched.PaperCluster(8, false),
			Hierarchy: h,
		})
		check(t, rep, err, 8)
	})
	for _, backend := range []loopsched.Backend{loopsched.BackendLocal, loopsched.BackendRPC} {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
				Scheme:    scheme,
				Workload:  w,
				Backend:   backend,
				Workers:   runWorkers(),
				Body:      func(i int) {},
				Hierarchy: h,
			})
			check(t, rep, err, len(runWorkers()))
		})
	}
	t.Run("mp-unsupported", func(t *testing.T) {
		_, err := loopsched.Run(context.Background(), loopsched.RunSpec{
			Scheme:    scheme,
			Workload:  w,
			Backend:   loopsched.BackendMP,
			Workers:   runWorkers(),
			Body:      func(i int) {},
			Hierarchy: h,
		})
		if err == nil {
			t.Fatal("mp backend accepted a hierarchy")
		}
	})
}

// TestRunCancellation cancels mid-run on every backend and requires
// Run to return ctx's error with all machinery drained (the test
// binary's goroutine leak would otherwise trip -race / timeouts).
func TestRunCancellation(t *testing.T) {
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}

	t.Run("sim", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := loopsched.Run(ctx, loopsched.RunSpec{
			Scheme:   scheme,
			Workload: loopsched.Uniform{N: 1 << 20, C: 1},
			Backend:  loopsched.BackendSim,
			Cluster:  loopsched.PaperCluster(8, false),
		})
		if err != context.Canceled {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	})

	for _, backend := range executingBackends {
		backend := backend
		t.Run(string(backend), func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			done := make(chan struct{})
			go func() {
				defer close(done)
				_, err := loopsched.Run(ctx, loopsched.RunSpec{
					Scheme:   scheme,
					Workload: loopsched.Uniform{N: 1 << 20, C: 1},
					Backend:  backend,
					Workers:  runWorkers(),
					Body: func(i int) {
						once.Do(cancel)
					},
				})
				if err != context.Canceled {
					t.Errorf("got %v, want context.Canceled", err)
				}
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled run did not return")
			}
		})
	}

	t.Run("rpc-hierarchy", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var once sync.Once
		done := make(chan struct{})
		go func() {
			defer close(done)
			_, err := loopsched.Run(ctx, loopsched.RunSpec{
				Scheme:    scheme,
				Workload:  loopsched.Uniform{N: 1 << 20, C: 1},
				Backend:   loopsched.BackendRPC,
				Workers:   runWorkers(),
				Body:      func(i int) { once.Do(cancel) },
				Hierarchy: &loopsched.Hierarchy{Shards: 2},
			})
			if err != context.Canceled {
				t.Errorf("got %v, want context.Canceled", err)
			}
		}()
		select {
		case <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("cancelled hierarchical run did not return")
		}
	})
}

// TestRunBodyPanicIsAnError: a panicking Body on the local backend and a
// panicking Kernel on the rpc backend each end Run with an error that
// says so — not a crashed process, a hang or a goroutine left behind.
func TestRunBodyPanicIsAnError(t *testing.T) {
	boom := func(i int) {
		if i == 300 {
			panic("boom")
		}
	}
	for _, c := range []struct {
		name string
		spec loopsched.RunSpec
	}{
		{"local body", loopsched.RunSpec{Backend: loopsched.BackendLocal, Body: boom}},
		{"rpc kernel", loopsched.RunSpec{Backend: loopsched.BackendRPC, Kernel: func(i int) []byte { boom(i); return nil }}},
	} {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			spec := c.spec
			spec.Scheme, spec.Workload, spec.Workers, spec.Pipeline = loopsched.NewCSS(4), loopsched.Uniform{N: 1000}, runWorkers(), true
			done := make(chan error, 1)
			go func() {
				_, err := loopsched.Run(context.Background(), spec)
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "panicked") {
					t.Fatalf("Run returned %v, want an error saying the body panicked", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("a run whose body panicked did not return")
			}
			for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines after the run, %d before it", runtime.NumGoroutine(), before)
				}
			}
		})
	}
}

func TestRunSpecValidation(t *testing.T) {
	if _, err := loopsched.NewExecutor("quantum"); err == nil {
		t.Fatal("unknown backend accepted")
	}
	_, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Workload: loopsched.Uniform{N: 10, C: 1},
	})
	if err == nil {
		t.Fatal("missing scheme accepted")
	}
	scheme, _ := loopsched.LookupScheme("TSS")
	_, err = loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:  scheme,
		Backend: loopsched.BackendLocal,
		Workers: runWorkers(),
		Body:    func(i int) {},
	})
	if err == nil {
		t.Fatal("missing workload accepted")
	}
	_, err = loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:   scheme,
		Workload: loopsched.Uniform{N: 10, C: 1},
		Backend:  loopsched.BackendLocal,
		Workers:  runWorkers(),
	})
	if err == nil {
		t.Fatal("local backend ran without a body or kernel")
	}
}

// TestRunSpecValidationPerBackend pins every backend's structural
// error paths to RunSpec.validate: the same message comes back whether
// the spec is rejected by Run or by the backend's executor directly,
// so no entry point can drift its own checks.
func TestRunSpecValidationPerBackend(t *testing.T) {
	scheme, err := loopsched.LookupScheme("TSS")
	if err != nil {
		t.Fatal(err)
	}
	awf := loopsched.NewAWF()
	w := loopsched.Uniform{N: 10, C: 1}
	noop := func(i int) {}
	cases := []struct {
		name    string
		spec    loopsched.RunSpec
		wantErr string // "" means the spec is accepted and runs
	}{
		{
			name:    "local without workers",
			spec:    loopsched.RunSpec{Scheme: scheme, Workload: w, Backend: loopsched.BackendLocal, Body: noop},
			wantErr: "loopsched: local backend needs Workers",
		},
		{
			name: "local hierarchical steal engine",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendLocal,
				Workers: runWorkers(), Body: noop,
				LocalEngine: loopsched.EngineSteal, Hierarchy: &loopsched.Hierarchy{},
			},
			// The engine names are accepted and ignored: one in-process
			// runtime, flat or hierarchical.
		},
		{
			name: "local unknown engine",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendLocal,
				Workers: runWorkers(), Body: noop, LocalEngine: "fibers",
			},
			wantErr: `loopsched: unknown local engine "fibers"`,
		},
		{
			name:    "rpc without workers",
			spec:    loopsched.RunSpec{Scheme: scheme, Workload: w, Backend: loopsched.BackendRPC, Body: noop},
			wantErr: "loopsched: rpc backend needs Workers",
		},
		{
			name: "rpc unknown transport",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendRPC,
				Workers: runWorkers(), Body: noop, Transport: "carrier-pigeon",
			},
			wantErr: `loopsched: unknown transport "carrier-pigeon"`,
		},
		{
			name: "rpc ledger on",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendRPC,
				Workers: runWorkers(), Body: noop, Ledger: "on",
			},
			// Accepted and ignored: every grant is a master reply.
		},
		{
			name: "rpc unknown ledger mode",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendRPC,
				Workers: runWorkers(), Body: noop, Ledger: "sideways",
			},
			wantErr: `loopsched: unknown ledger mode "sideways"`,
		},
		{
			name:    "mp without workers",
			spec:    loopsched.RunSpec{Scheme: scheme, Workload: w, Backend: loopsched.BackendMP, Body: noop},
			wantErr: "loopsched: mp backend needs Workers",
		},
		{
			name: "mp hierarchical",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendMP,
				Body: noop, Hierarchy: &loopsched.Hierarchy{},
			},
			wantErr: "loopsched: the mp backend is flat-only; use sim, local or rpc for hierarchies",
		},
		{
			name: "sim hierarchical AWF is accepted",
			spec: loopsched.RunSpec{
				Scheme: awf, Workload: w, Backend: loopsched.BackendSim,
				Cluster: loopsched.PaperCluster(4, false), Hierarchy: &loopsched.Hierarchy{},
			},
		},
		{
			name: "rpc hierarchical AWF is accepted",
			spec: loopsched.RunSpec{
				Scheme: awf, Workload: w, Backend: loopsched.BackendRPC,
				Workers: runWorkers(), Body: noop, Hierarchy: &loopsched.Hierarchy{},
			},
		},
		{
			name: "local hierarchical AWF is accepted",
			spec: loopsched.RunSpec{
				Scheme: awf, Workload: w, Backend: loopsched.BackendLocal,
				Workers: runWorkers(), Body: noop, Hierarchy: &loopsched.Hierarchy{},
			},
		},
		{
			name:    "unknown backend",
			spec:    loopsched.RunSpec{Scheme: scheme, Workload: w, Backend: "quantum", Body: noop},
			wantErr: `loopsched: unknown backend "quantum"`,
		},
		{
			name:    "missing scheme",
			spec:    loopsched.RunSpec{Workload: w, Backend: loopsched.BackendLocal, Workers: runWorkers(), Body: noop},
			wantErr: "loopsched: RunSpec.Scheme is required",
		},
		{
			name:    "missing workload",
			spec:    loopsched.RunSpec{Scheme: scheme, Backend: loopsched.BackendLocal, Workers: runWorkers(), Body: noop},
			wantErr: "loopsched: RunSpec.Workload is required",
		},
		{
			// Zero and below set no credit window, as always.
			name: "local credit window 0",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendLocal,
				Workers: runWorkers(), Body: noop, CreditWindow: 0,
			},
		},
		{
			name: "rpc credit window -1",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: loopsched.BackendRPC,
				Workers: runWorkers(), Body: noop, CreditWindow: -1,
			},
		},
	}
	// A positive credit window is refused on every backend: no count
	// caps a batch.
	for _, b := range []loopsched.Backend{loopsched.BackendSim, loopsched.BackendLocal, loopsched.BackendRPC, loopsched.BackendMP} {
		cases = append(cases, struct {
			name    string
			spec    loopsched.RunSpec
			wantErr string
		}{
			name: string(b) + " credit window 8",
			spec: loopsched.RunSpec{
				Scheme: scheme, Workload: w, Backend: b, Cluster: loopsched.PaperCluster(4, false),
				Workers: runWorkers(), Body: noop, CreditWindow: 8,
			},
			wantErr: loopsched.ErrCreditWindow.Error(),
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loopsched.Run(context.Background(), tc.spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Run error = %v, want the spec accepted", err)
				}
				return
			}
			if err == nil || err.Error() != tc.wantErr {
				t.Fatalf("Run error = %v, want %q", err, tc.wantErr)
			}
			if tc.spec.CreditWindow > 0 && !errors.Is(err, loopsched.ErrCreditWindow) {
				t.Fatalf("Run error = %v, want ErrCreditWindow", err)
			}
			ex, exErr := loopsched.NewExecutor(tc.spec.Backend)
			if exErr != nil {
				// The unknown-backend case: NewExecutor and validate must
				// agree on the message.
				if exErr.Error() != tc.wantErr {
					t.Fatalf("NewExecutor error = %v, want %q", exErr, tc.wantErr)
				}
				return
			}
			if _, err := ex.Run(context.Background(), tc.spec); err == nil || err.Error() != tc.wantErr {
				t.Fatalf("executor error = %v, want %q", err, tc.wantErr)
			}
		})
	}
}
