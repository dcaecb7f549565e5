package hier

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/sim"
	"loopsched/internal/trace"
	"loopsched/internal/workload"
)

// testCluster builds a heterogeneous p-machine cluster in the paper's
// 2:1 fast/slow mix, with per-machine links.
func testCluster(p int) sim.Cluster {
	c := sim.Cluster{}
	for i := 0; i < p; i++ {
		power := 1.0
		link := sim.Link{Latency: 1e-4, Bandwidth: sim.Mbit10}
		if i%3 == 0 {
			power = 2
			link = sim.Link{Latency: 1e-4, Bandwidth: sim.Mbit100}
		}
		c.Machines = append(c.Machines, sim.Machine{
			Name:  fmt.Sprintf("m%d", i),
			Power: power,
			Link:  link,
		})
	}
	return c
}

// TestSimulateCoverageAllSchemes is the hierarchy invariant test: for
// every registered scheme, the two-level run executes each iteration
// exactly once — the per-shard chunk sequences tile the loop with no
// overlap and no gap — and the report's totals agree.
func TestSimulateCoverageAllSchemes(t *testing.T) {
	const n = 4000
	cluster := testCluster(9)
	w := workload.Uniform{N: n, C: 1}
	for _, name := range sched.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			scheme, err := sched.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			tr := &trace.Trace{}
			rep, err := Simulate(context.Background(), cluster, scheme, w,
				sim.Params{Trace: tr}, Config{Shards: 3})
			if err != nil {
				t.Fatalf("Simulate(%s): %v", name, err)
			}
			covered := make([]int, n)
			for _, e := range tr.Events() {
				for i := e.Start; i < e.Start+e.Size; i++ {
					if i < 0 || i >= n {
						t.Fatalf("event outside loop: %+v", e)
					}
					covered[i]++
				}
			}
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("%s: iteration %d executed %d times", name, i, c)
				}
			}
			if rep.Iterations != n {
				t.Fatalf("%s: report says %d iterations", name, rep.Iterations)
			}
			var shardIters int
			for _, s := range rep.Shards {
				shardIters += s.Iterations
			}
			if shardIters != n {
				t.Fatalf("%s: shard iterations sum to %d", name, shardIters)
			}
			if len(rep.Shards) != 3 {
				t.Fatalf("%s: %d shards in report", name, len(rep.Shards))
			}
		})
	}
}

func TestSimulateDeterministic(t *testing.T) {
	cluster := testCluster(8)
	w := workload.LinearDecreasing{N: 5000}
	scheme, _ := sched.Lookup("DTSS")
	run := func() float64 {
		rep, err := Simulate(context.Background(), cluster, scheme, w, sim.Params{}, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return rep.Tp
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("non-deterministic: %g vs %g", a, b)
	}
}

func TestSimulateRejectsFlatKnobs(t *testing.T) {
	cluster := testCluster(4)
	w := workload.Uniform{N: 100, C: 1}
	scheme, _ := sched.Lookup("TSS")
	for _, p := range []sim.Params{{Prefetch: true}, {CollectAtEnd: true}, {SharedBus: true}} {
		if _, err := Simulate(context.Background(), cluster, scheme, w, p, Config{}); err == nil {
			t.Fatalf("expected rejection for %+v", p)
		}
	}
}

func TestSimulateCancel(t *testing.T) {
	cluster := testCluster(8)
	w := workload.Uniform{N: 200000, C: 1}
	scheme, _ := sched.Lookup("FSS")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Simulate(ctx, cluster, scheme, w, sim.Params{}, Config{}); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestSimulateStealsUnderLoad drives one shard's machines with heavy
// external load and checks the root rebalances toward the others.
func TestSimulateStealsUnderLoad(t *testing.T) {
	cluster := testCluster(8)
	// Load down every machine of shard 0 for the whole run, so that
	// shard falls far behind its static-power partition.
	for _, w := range AssignShards(cluster.Powers(), 2)[0] {
		cluster.Machines[w].Load = sim.LoadScript{{Start: 0, End: 1e9, Extra: 8}}
	}
	// Compute-bound run (tiny result payloads), so the external load —
	// not the wire — decides which shard lags.
	w := workload.Uniform{N: 20000, C: 100}
	scheme, _ := sched.Lookup("TSS")
	rep, err := Simulate(context.Background(), cluster, scheme, w,
		sim.Params{BytesPerIter: 1}, Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steals == 0 {
		t.Fatal("expected root-level steals with half the cluster loaded")
	}
}

var updatePins = flag.Bool("update-pins", false, "rewrite testdata/simulate_pinned.golden from the current simulator")

// TestSimulatePinned pins the hierarchical simulator's figures bit for
// bit: T_p, chunk and steal totals, every shard's tallies and every
// worker's Comp/Comm/Wait, for each non-learning scheme on a 9-machine
// cluster at one and three shards, and on the loaded 8-machine cluster
// of TestSimulateStealsUnderLoad. A refactor of the event model must
// leave the golden file as it is; `go test -run TestSimulatePinned
// ./internal/hier -update-pins` rewrites it when a change is meant to
// move the numbers.
func TestSimulatePinned(t *testing.T) {
	loaded := testCluster(8)
	for _, w := range AssignShards(loaded.Powers(), 2)[0] {
		loaded.Machines[w].Load = sim.LoadScript{{Start: 0, End: 1e9, Extra: 8}}
	}
	type setup struct {
		name    string
		cluster sim.Cluster
		w       workload.Workload
		p       sim.Params
		cfg     Config
	}
	setups := []setup{
		{"p9/shards1", testCluster(9), workload.LinearDecreasing{N: 4000}, sim.Params{}, Config{Shards: 1}},
		{"p9/shards3", testCluster(9), workload.LinearDecreasing{N: 4000}, sim.Params{}, Config{Shards: 3}},
		{"loaded/shards2", loaded, workload.Uniform{N: 20000, C: 100}, sim.Params{BytesPerIter: 1}, Config{Shards: 2}},
	}
	bits := func(v float64) string { return fmt.Sprintf("%016x(%.9g)", math.Float64bits(v), v) }
	var got strings.Builder
	for _, name := range sched.Names() {
		scheme, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Learns(scheme) {
			continue
		}
		for _, s := range setups {
			rep, err := Simulate(context.Background(), s.cluster, scheme, s.w, s.p, s.cfg)
			if err != nil {
				t.Fatalf("%s %s: %v", name, s.name, err)
			}
			fmt.Fprintf(&got, "== %s %s\ntp %s chunks %d steals %d\n", name, s.name, bits(rep.Tp), rep.Chunks, rep.Steals)
			for _, sh := range rep.Shards {
				fmt.Fprintf(&got, "shard %d iterations %d chunks %d fetches %d steals %d\n",
					sh.Shard, sh.Iterations, sh.Chunks, sh.Fetches, sh.Steals)
			}
			for i, pw := range rep.PerWorker {
				fmt.Fprintf(&got, "worker %d comp %s comm %s wait %s\n", i, bits(pw.Comp), bits(pw.Comm), bits(pw.Wait))
			}
		}
	}
	const golden = "testdata/simulate_pinned.golden"
	if *updatePins {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	gotCases, wantCases := strings.Split(got.String(), "== "), strings.Split(string(want), "== ")
	if len(gotCases) != len(wantCases) {
		t.Fatalf("%d pinned cases, want %d", len(gotCases), len(wantCases))
	}
	for i := range gotCases {
		if gotCases[i] != wantCases[i] {
			t.Errorf("figures moved\n--- got\n%s--- want\n%s", gotCases[i], wantCases[i])
		}
	}
}
