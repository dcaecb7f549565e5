package exec

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/ledger"
	"loopsched/internal/sched"
	"loopsched/internal/wire"
	"loopsched/internal/workload"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable. One guard drives the deque core's whole
// per-chunk cycle — pop, steal, refill, complete — because those
// operations only occur interleaved; the master's guard drives a whole
// request, because a reply is booked only inside one, and the memory
// link's a whole refill, Send and Recv.
var hotGuards = map[string]func(t *testing.T){
	"(*JobState).Pop":      jobStateCycleGuard,
	"(*JobState).Steal":    jobStateCycleGuard,
	"(*JobState).Complete": jobStateCycleGuard,
	"(*Master).book":       masterReplyGuard,
	"(Worker).run":         workerRunGuard,
	"(*claimer).send":      claimRefillGuard,
	"(*claimer).recv":      claimRefillGuard,
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
// allocations: pop from the own deque, steal from a sibling, refill
// from the policy, complete — the same interleaving a service fleet
// worker performs per chunk.
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
			a, ok = js.Steal(0)
		}
		if !ok {
			// Refill the sibling, so the next rounds exercise Steal too.
			if _, _, ok = js.Refill(1, 1, 0, 0); !ok {
				panic("policy drained mid-guard")
			}
			a, _, _ = js.Refill(0, 1, 0, 0)
		}
		js.Complete(0, a, 1, 0)
	}); avg > 0 {
		t.Errorf("pop/steal/refill/complete cycle allocates %.1f objects per op, want 0", avg)
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
// share-bounded batch, encode the reply. The benchmark's
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
		if err := m.nextBatch(args, depth, &rep); err != nil || len(rep.Grants) != depth {
			panic("master reply guard: short reply")
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
// ship the last reply's chunks as one run record each, have the master
// deposit them, claim and book 64 more, and take the reply over by the
// buffer swap — the whole round trip of a local worker's prefetch.
func memLinkRefillGuard(t *testing.T) {
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
		if err := l.Recv(&rep); err != nil || len(rep.Grants) != depth {
			panic(fmt.Sprint("memory link guard: ", len(rep.Grants), " grants, ", err))
		}
		recs = recs[:0]
		for _, g := range rep.Grants {
			recs = append(recs, wire.Record{Index: g.Start, Count: g.Size})
		}
	}
	cycle() // sizes the buffers on both sides of the swap
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg > 0 {
		t.Errorf("a %d-grant memory-link refill allocates %.1f objects, want 0", depth, avg)
	}
}

// frameSink is a connection that only collects what is written to it.
type frameSink struct{ *bytes.Buffer }

func (frameSink) Close() error { return nil }

// claimRefillGuard pins the slave loop's claim refill at zero
// allocations with telemetry off, at a derived depth of 64 chunks on a
// CSS(4) step table: send the claim, read the step that answers it as
// the grants it covers, compute them and queue one no-reply deposit per
// chunk — what runWindow does per claim while it claims.
// The master's answers are step frames recorded up front.
func claimRefillGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops encode buffers at random")
	}
	const k, depth, cycles = 4, 64, 202 // AllocsPerRun runs once more than asked
	tab, err := ledger.Build(sched.CSSScheme{K: k}, sched.Config{Iterations: 1 << 20, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var steps bytes.Buffer
	master := wire.NewServer(frameSink{&steps}, nil)
	for c := 0; c < cycles; c++ {
		if err := master.WriteStep(uint64(c * depth)); err != nil {
			t.Fatal(err)
		}
	}
	cl := claimer{c: wire.NewServer(discardConn{&steps}, nil), tab: tab, share: 1, claimed: true}
	w := Worker{Kernel: func(int) []byte { return nil }}
	var (
		req  wire.Request
		rep  wire.Reply
		recs []wire.Record
	)
	cycle := func() {
		if err := cl.send(depth); err != nil {
			panic(err)
		}
		if err := cl.recv(nil, &rep); err != nil || cl.done || len(rep.Grants) != depth {
			panic(fmt.Sprint("claim refill guard: ", len(rep.Grants), " chunks, ", err))
		}
		for _, a := range rep.Grants {
			recs = w.run(recs[:0], a.Start, a.End())
			w.wireRequest(&req, true, 0, recs, nil, 1e-6, 0)
			req.NoReply = true
			if err := cl.c.QueueRequest(&req); err != nil {
				panic(err)
			}
		}
	}
	cycle() // sizes the grant and record buffers
	if avg := testing.AllocsPerRun(cycles-2, cycle); avg > 0 {
		t.Errorf("a %d-chunk claim refill allocates %.1f objects, want 0", depth, avg)
	}
}

// workerRunGuard pins the worker's half of run coding: over a kernel
// that returns no bytes, a 256-iteration run call appends one record
// covering all of them, and in steady state — the record buffer reused
// call over call, as runWindow reuses pending — it allocates nothing.
func workerRunGuard(t *testing.T) {
	w := Worker{Kernel: func(int) []byte { return nil }}
	recs := w.run(nil, 0, 256)
	if len(recs) != 1 || recs[0].Index != 0 || recs[0].Count != 256 || recs[0].Data != nil {
		t.Fatalf("256 empty results coded as %+v, want one run {0, 256}", recs)
	}
	if avg := testing.AllocsPerRun(1000, func() { recs = w.run(recs[:0], 256, 512) }); avg > 0 {
		t.Errorf("a 256-iteration run call allocates %.1f objects, want 0", avg)
	}
}
