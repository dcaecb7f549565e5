package hier_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"loopsched"
)

// The hier-local runtime — a root exec.Master over RootScheme and a
// hier.Submaster per shard, every link a memory link — is assembled by
// the root package's local backend, so these tests drive it through
// loopsched.Run.

func localSpecs() []*loopsched.WorkerSpec {
	return []*loopsched.WorkerSpec{
		{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 2},
		{WorkScale: 2}, {WorkScale: 4}, {WorkScale: 4},
	}
}

func TestLocalRunCoverage(t *testing.T) {
	const n = 3000
	for _, name := range []string{"TSS", "DTSS", "FSS", "WF"} {
		t.Run(name, func(t *testing.T) {
			scheme, err := loopsched.LookupScheme(name)
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			counts := make([]int, n)
			rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
				Scheme: scheme, Workload: loopsched.Uniform{N: n, C: 1},
				Backend: loopsched.BackendLocal, Workers: localSpecs(),
				Body:      func(i int) { mu.Lock(); counts[i]++; mu.Unlock() },
				Hierarchy: &loopsched.Hierarchy{Shards: 2},
			})
			if err != nil {
				t.Fatal(err)
			}
			// WorkScale repeats the body; what must hold is that every
			// iteration ran a positive multiple of its scale — and that
			// the report's exactly-once accounting agrees.
			for i, c := range counts {
				if c == 0 {
					t.Fatalf("iteration %d never executed", i)
				}
			}
			if rep.Iterations != n {
				t.Fatalf("report counts %d iterations", rep.Iterations)
			}
			if len(rep.Shards) != 2 {
				t.Fatalf("%d shards reported", len(rep.Shards))
			}
			var si int
			for _, s := range rep.Shards {
				si += s.Iterations
			}
			if si != n {
				t.Fatalf("shard iterations sum to %d", si)
			}
		})
	}
}

func TestLocalRunCancel(t *testing.T) {
	scheme, _ := loopsched.LookupScheme("TSS")
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := loopsched.Run(ctx, loopsched.RunSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 1 << 20, C: 1},
			Backend: loopsched.BackendLocal, Workers: localSpecs(),
			Body: func(i int) {
				once.Do(cancel) // cancel as soon as work starts
			},
			Hierarchy: &loopsched.Hierarchy{},
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
}
