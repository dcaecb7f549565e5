package hier

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// startHierarchy wires a complete two-level RPC runtime on loopback:
// a root exec.Master running RootScheme over K submasters, each
// serving its share of stock exec.Workers. Returns the root, the
// captured allocator, the submasters and their member counts. When
// bus is non-nil the submasters, workers and root allocator publish
// telemetry to it (the root master itself stays silent: its grants
// are super-chunks and would double-count). The workers run kernel.
func startHierarchy(t *testing.T, scheme sched.Scheme, n int, members [][]int, pipeline bool, bus *telemetry.Bus, kernel exec.Kernel) (*exec.Master, **Root, []*Submaster, chan error) {
	t.Helper()
	workerErrs := make(chan error, 16)
	k := len(members)
	// Run-global worker ids: shard-local index li in shard si maps to
	// globalID[si][li], mirroring run.go's numbering.
	globalID := make([][]int, k)
	next := 0
	for si := range members {
		globalID[si] = make([]int, len(members[si]))
		for li := range members[si] {
			globalID[si][li] = next
			next++
		}
	}
	// The allocator is built lazily, at root-gather completion; hand the
	// caller a slot it can read after Wait (which orders the write).
	captured := new(*Root)
	rootScheme := RootScheme{OnRoot: func(r *Root) {
		*captured = r
		r.SetTelemetry(bus)
	}}
	root, err := exec.New(exec.Config{Scheme: rootScheme, Iterations: n, Workers: k, NoReplan: true})
	if err != nil {
		t.Fatal(err)
	}
	rootL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rootL.Close() })
	if err := root.Serve(rootL); err != nil {
		t.Fatal(err)
	}

	subs := make([]*Submaster, k)
	for si := range members {
		link, err := exec.Dial(context.Background(), rootL.Addr().String(), "")
		if err != nil {
			t.Fatal(err)
		}
		sub, err := NewSubmaster(exec.Config{
			Scheme: scheme, Iterations: n, Workers: len(globalID[si]), Telemetry: bus,
			Shard: si, Members: globalID[si],
		}, link)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sub.Close() })
		subL, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { subL.Close() })
		if err := sub.Serve(subL); err != nil {
			t.Fatal(err)
		}
		subs[si] = sub
		for li, scale := range members[si] {
			w := exec.Worker{
				ID:             li,
				WorkScale:      scale,
				VirtualPower:   float64(4 / scale),
				Pipeline:       pipeline,
				Telemetry:      bus,
				TelemetryID:    globalID[si][li],
				TelemetryShard: si,
				Kernel:         kernel,
			}
			go func(w exec.Worker, addr string) {
				if err := w.Run(addr); err != nil {
					select {
					case workerErrs <- fmt.Errorf("worker %d: %w", w.ID, err):
					default:
					}
				}
			}(w, subL.Addr().String())
		}
	}
	return root, captured, subs, workerErrs
}

// squareKernel is the hierarchy tests' kernel: iteration i's result is
// i² in eight bytes, which checkResults verifies.
func squareKernel(i int) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(i*i))
	return buf
}

func checkResults(t *testing.T, results [][]byte, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if len(results[i]) != 8 {
			t.Fatalf("iteration %d: missing result", i)
		}
		if got := binary.LittleEndian.Uint64(results[i]); got != uint64(i*i) {
			t.Fatalf("iteration %d: got %d", i, got)
		}
	}
}

func TestRPCHierarchyEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		scheme   string
		pipeline bool
	}{
		{"TSS", false},
		{"DTSS", false},
		{"FSS", true},
	} {
		tc := tc
		t.Run(fmt.Sprintf("%s/pipeline=%v", tc.scheme, tc.pipeline), func(t *testing.T) {
			const n = 2000
			scheme, err := sched.Lookup(tc.scheme)
			if err != nil {
				t.Fatal(err)
			}
			// Worker entries are WorkScales; two shards of three.
			members := [][]int{{1, 2, 4}, {1, 2, 4}}
			root, captured, subs, workerErrs := startHierarchy(t, scheme, n, members, tc.pipeline, nil, squareKernel)

			results, rep, err := root.Wait()
			if err != nil {
				t.Fatal(err)
			}
			checkResults(t, results, n)
			if *captured == nil {
				t.Fatal("OnRoot never ran")
			}
			if rem := (*captured).Remaining(); rem != 0 {
				t.Fatalf("root still holds %d iterations", rem)
			}
			if rep.Iterations != n {
				t.Fatalf("report iterations %d", rep.Iterations)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			var localIters int
			for si, sub := range subs {
				_, srep, err := sub.WaitContext(ctx)
				if err != nil {
					t.Fatal(err)
				}
				fetches, _ := (*captured).ShardCounts(si)
				localIters += srep.Iterations
				if srep.Chunks == 0 || fetches == 0 || srep.Tp == 0 {
					t.Fatalf("submaster tallies incomplete: %d chunks, %d fetches", srep.Chunks, fetches)
				}
			}
			if localIters != n {
				t.Fatalf("submaster iterations sum to %d", localIters)
			}
			select {
			case err := <-workerErrs:
				t.Fatal(err)
			default:
			}
		})
	}
}

func TestRPCHierarchyCancel(t *testing.T) {
	const n = 1 << 20
	scheme, _ := sched.Lookup("TSS")
	members := [][]int{{1, 1}, {1, 1}}
	// The run is cancelled from inside the kernel, once its first
	// iteration is done (cancel is idempotent, so every later iteration
	// may call it again).
	ctx, cancel := context.WithCancel(context.Background())
	kernel := func(i int) []byte {
		defer cancel()
		return squareKernel(i)
	}
	root, _, subs, _ := startHierarchy(t, scheme, n, members, false, nil, kernel)

	_, _, err := root.WaitContext(ctx)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Cancellation must release the submasters' parked fetches so every
	// local worker is sent home — no goroutine left behind.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer waitCancel()
	for _, sub := range subs {
		if _, _, err := sub.WaitContext(waitCtx); err != nil {
			t.Fatalf("submaster did not drain after cancel: %v", err)
		}
	}
}

// TestRPCHierarchyTelemetry runs the full two-level RPC stack with a
// telemetry session attached — debug HTTP server included — and checks
// the worker-level counters reconcile: chunks granted at the
// submasters equal the submasters' own chunk tallies, and granted
// iterations tile the loop. The package's leak-checked TestMain covers
// the teardown: closing the session after Submaster.Close must leave
// no drainer or HTTP goroutine behind.
func TestRPCHierarchyTelemetry(t *testing.T) {
	tele, err := telemetry.New(telemetry.Options{DebugAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()

	const n = 3000
	scheme, err := sched.Lookup("DTSS")
	if err != nil {
		t.Fatal(err)
	}
	members := [][]int{{1, 2}, {1, 4}}
	root, _, subs, workerErrs := startHierarchy(t, scheme, n, members, true, tele.Bus(), squareKernel)

	results, rep, err := root.Wait()
	if err != nil {
		t.Fatal(err)
	}
	checkResults(t, results, n)
	if rep.Iterations != n {
		t.Fatalf("report iterations %d", rep.Iterations)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	var subChunks int
	for _, sub := range subs {
		_, srep, err := sub.WaitContext(ctx)
		if err != nil {
			t.Fatal(err)
		}
		subChunks += srep.Chunks
	}
	select {
	case err := <-workerErrs:
		t.Fatal(err)
	default:
	}

	tele.Bus().Flush()
	snap := tele.Aggregator().Snapshot()
	if int(snap.ChunksGranted) != subChunks {
		t.Errorf("snapshot chunks granted %d, submasters granted %d", snap.ChunksGranted, subChunks)
	}
	if int(snap.Iterations) != n {
		t.Errorf("snapshot iterations %d, want %d", snap.Iterations, n)
	}
	if snap.Dropped != 0 {
		t.Errorf("%d events dropped", snap.Dropped)
	}
	if err := tele.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRPCHierarchyDrainsRuns: workers whose kernel returns no bytes
// report each stretch of iterations as one run record. A shard that
// counted records instead of iterations would never see itself
// quiescent and would never fetch again; here
// every shard must drain with nothing outstanding, having forwarded the
// runs so the root holds every iteration exactly once.
func TestRPCHierarchyDrainsRuns(t *testing.T) {
	const n = 3000
	scheme, err := sched.Lookup("FSS")
	if err != nil {
		t.Fatal(err)
	}
	for _, pipeline := range []bool{false, true} {
		counts := make([]atomic.Int32, n)
		kernel := func(i int) []byte {
			counts[i].Add(1)
			return nil
		}
		root, _, subs, workerErrs := startHierarchy(t, scheme, n, [][]int{{1, 1}, {1, 2}}, pipeline, nil, kernel)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		results, rep, err := root.WaitContext(ctx)
		if err != nil {
			cancel()
			t.Fatalf("pipeline=%v: %v", pipeline, err)
		}
		if rep.Iterations != n {
			t.Errorf("pipeline=%v: report iterations %d", pipeline, rep.Iterations)
		}
		for i, r := range results {
			if c := counts[i].Load(); r != nil || c < 1 || c > 2 {
				t.Fatalf("pipeline=%v: iteration %d ran %d times, result %v", pipeline, i, c, r)
			}
		}
		for si, sub := range subs {
			if _, _, err := sub.WaitContext(ctx); err != nil {
				t.Fatalf("pipeline=%v: shard %d did not drain: %v", pipeline, si, err)
			}
			outstanding := len(sub.Outstanding())
			sub.mu.Lock()
			pending := len(sub.pending)
			sub.mu.Unlock()
			if outstanding != 0 || pending != 0 {
				t.Errorf("pipeline=%v: shard %d drained with chunks outstanding on %d workers, %d results unforwarded", pipeline, si, outstanding, pending)
			}
		}
		cancel()
		select {
		case err := <-workerErrs:
			t.Fatal(err)
		default:
		}
	}
}
