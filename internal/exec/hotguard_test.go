package exec

import (
	"fmt"
	"io"
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
	"loopsched/internal/wire"
	"loopsched/internal/workload"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable. One guard drives JobState's whole
// per-chunk cycle — pop, refill, complete — because those operations
// only occur interleaved; the master's guard drives a whole request,
// because a reply is booked only inside one, and the memory link's a
// whole refill, Send and Recv.
var hotGuards = map[string]func(t *testing.T){
	"(*JobState).Pop":      jobStateCycleGuard,
	"(*JobState).Complete": jobStateCycleGuard,
	"(*Master).book":       masterReplyGuard,
	"Compute":              workerRunGuard,
	"(*memLink).Send":      memLinkRefillGuard,
	"(*memLink).Recv":      memLinkRefillGuard,
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

// jobStateCycleGuard pins the per-chunk cycle with telemetry disabled
// (a nil bus, the steady-state default for headless runs) at zero
// allocations: pop from the own deque, refill from the policy when it
// is empty, complete — the cycle the benchmark's exec.refill_ns probe
// times.
func jobStateCycleGuard(t *testing.T) {
	js, err := NewJobState(JobConfig{
		Scheme:   sched.CSSScheme{K: 4},
		Workload: workload.Uniform{N: 1 << 30},
		Workers:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		a, ok := js.Pop(0)
		if !ok {
			if a, _, ok = js.Refill(0, 1, 0, 0); !ok {
				panic("policy drained mid-guard")
			}
		}
		js.Complete(0, a, 1, 0)
	}); avg > 0 {
		t.Errorf("pop/refill/complete cycle allocates %.1f objects per op, want 0", avg)
	}
}

// discardConn is the far end of a reply nobody reads.
type discardConn struct{ io.Reader }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// masterReplyGuard pins the rpc master's steady-state request at zero
// allocations with telemetry off, at the depth a worker derives on a
// fine loop (no window set): deposit the 64 chunks of the last reply,
// retire them from the worker's ledger, claim and book 64 more in one
// share-bounded batch — one run — and encode the reply. The benchmark's
// allocs_per_chunk.rpc_binary rests on this staying flat however deep a
// reply runs.
func masterReplyGuard(t *testing.T) {
	const k, depth = 4, 64
	m, err := NewMaster(sched.CSSScheme{K: k}, 1<<18, 2)
	if err != nil {
		t.Fatal(err)
	}
	conn := wire.NewServer(discardConn{}, nil)
	var rep wire.Reply
	results := make([]ChunkResult, 0, depth*k)
	data := []byte{1}
	cycle := func() {
		args := ChunkArgs{Worker: 0, Prefetch: true, CompSeconds: 1e-6, Results: results}
		rep.Reset()
		if err := m.nextBatch(args, depth, &rep); err != nil || len(rep.Grants) != 1 || rep.Chunks() != depth {
			panic(fmt.Sprint("master reply guard: reply of ", rep.Grants, rep.Counts, ", want one run of ", depth))
		}
		if err := conn.WriteReply(&rep); err != nil {
			panic(err)
		}
		results = results[:0]
		for _, g := range rep.Grants {
			for i := g.Start; i < g.End(); i++ {
				results = append(results, ChunkResult{Index: i, Data: data})
			}
		}
	}
	cycle() // sizes the slot's ledger and the reply's grant buffer
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("a %d-grant request/reply cycle allocates %.1f objects, want 0", depth, avg)
	}
}

// memLinkRefillGuard pins a steady-state refill over a memory link at
// zero allocations with telemetry off, at the depth of masterReplyGuard:
// ship the last reply's chunks — as one run record each, as a worker
// echoing spans does, or the whole batch as one run, as a worker echoing
// none does — have the master deposit and retire them, claim and book
// 64 more, and take the reply over by the buffer swap: the whole round
// trip of a local worker's prefetch.
func memLinkRefillGuard(t *testing.T) {
	memLinkRefill(t, true)
	memLinkRefill(t, false)
}

// memLinkRefill runs memLinkRefillGuard's cycle, shipping a run per
// chunk or per contiguous stretch.
func memLinkRefill(t *testing.T, perChunk bool) {
	const k, depth = 4, 64
	m, err := NewMaster(sched.CSSScheme{K: k}, 1<<18, 2)
	if err != nil {
		t.Fatal(err)
	}
	l := m.Link()
	var (
		req  wire.Request
		rep  wire.Reply
		recs []wire.Record
	)
	cycle := func() {
		req = wire.Request{Worker: 0, Prefetch: true, Credits: depth, CompSeconds: 1e-6, Results: recs}
		if err := l.Send(&req); err != nil {
			panic(err)
		}
		if err := l.Recv(&rep); err != nil || rep.Chunks() != depth {
			panic(fmt.Sprint("memory link guard: ", rep.Chunks(), " chunks, ", err))
		}
		recs = recs[:0]
		for i := range rep.Grants {
			for r, j := rep.Run(i), 0; j < r.Count; j++ {
				g := r.Chunk(j)
				if n := len(recs) - 1; !perChunk && n >= 0 && recs[n].Index+recs[n].Count == g.Start {
					recs[n].Count += g.Size
					continue
				}
				recs = append(recs, wire.Record{Index: g.Start, Count: g.Size})
			}
		}
	}
	cycle() // sizes the buffers on both sides of the swap
	cycle()
	if !perChunk && len(recs) != 1 {
		t.Fatalf("a %d-grant batch shipped as %d runs, want 1", depth, len(recs))
	}
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("a %d-grant memory-link refill (a run per chunk: %v) allocates %.1f objects, want 0", depth, perChunk, avg)
	}
}

// workerRunGuard pins the worker's half of run coding: over a kernel
// that returns no bytes, and bare over a body, a 256-iteration compute
// step appends one record covering all of them, and in steady state —
// the record buffer reused call over call, as runWindow reuses pending —
// it allocates nothing.
func workerRunGuard(t *testing.T) {
	kernel := func(int) []byte { return nil }
	for _, body := range []func(int){nil, func(int) {}} {
		recs, err := Compute(body, kernel, 1, nil, 0, 256, true)
		if err != nil || len(recs) != 1 || recs[0].Index != 0 || recs[0].Count != 256 || recs[0].Data != nil {
			t.Fatalf("256 empty results (bare: %v) coded as %+v, %v; want one run {0, 256}", body != nil, recs, err)
		}
		if avg := testing.AllocsPerRun(1000, func() { recs, _ = Compute(body, kernel, 1, recs[:0], 256, 512, true) }); avg > 0 {
			t.Errorf("a 256-iteration compute step (bare: %v) allocates %.1f objects, want 0", body != nil, avg)
		}
	}
}
