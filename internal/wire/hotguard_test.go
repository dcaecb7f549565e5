package wire

import (
	"bytes"
	"sort"
	"testing"

	"loopsched/internal/hotpath"
	"loopsched/internal/sched"
)

// hotGuards is this package's alloc-guard table: one entry per
// //lint:loopsched-hotpath function, checked against the annotations
// by TestHotPathGuardTable — annotating a new exported function fails
// that test until a guard lands here. One steady-state cycle guards
// several hot functions at once: the codec round trip covers the
// append/decode/reset layer, the framed round trip covers the Conn
// layer on top of it (Send is WriteRequest, Recv is ReadReply plus the
// error check, Call is the two composed).
var hotGuards = map[string]func(t *testing.T){
	"(*Request).reset":        codecGuard,
	"(*Reply).Reset":          codecGuard,
	"appendRequest":           codecGuard,
	"appendReply":             codecGuard,
	"decodeRequest":           codecGuard,
	"decodeReply":             codecGuard,
	"(*Conn).writeFrame":      connGuard,
	"(*Conn).queueFrame":      connGuard,
	"(*Conn).QueueRequest":    ledgerConnGuard,
	"(*Conn).WriteRequest":    connGuard,
	"(*Conn).WriteReply":      connGuard,
	"(*Conn).readBody":        connGuard,
	"(*Conn).readFrame":       connGuard,
	"(*Conn).publishReceived": connGuard,
	"(*Conn).ReadRequest":     connGuard,
	"(*Conn).ReadReply":       connGuard,
	"(*Conn).Send":            connGuard,
	"(*Conn).Recv":            connGuard,
	"(*Conn).Call":            connGuard,
	"appendFetchAdd":          ledgerCodecGuard,
	"decodeFetchAdd":          ledgerCodecGuard,
	"appendStep":              ledgerCodecGuard,
	"decodeStep":              ledgerCodecGuard,
	"(*Conn).WriteFetchAdd":   ledgerConnGuard,
	"(*Conn).WriteStep":       ledgerConnGuard,
	"(*Conn).ReadStep":        ledgerConnGuard,
	"(*Conn).FetchAdd":        ledgerConnGuard,
	"(*Conn).ReadClientFrame": ledgerConnGuard,
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

// TestHotPathAllocGuards runs every guard in the table exactly once
// per distinct guard (many names share one cycle).
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

// codecGuard pins the steady-state property the package exists for:
// encoding and decoding a realistic batch into reused buffers performs
// zero allocations per round trip.
func codecGuard(t *testing.T) {
	payload := bytes.Repeat([]byte{0x5A}, 2048)
	req := Request{
		Worker: 3, ACP: 17, CompSeconds: 0.012, IdleSeconds: 0.001,
		Prefetch: true, Credits: 8,
		Results: []Record{{Index: 41, Data: payload}, {Index: 42, Data: payload}},
	}
	rep := Reply{Grants: []sched.Assignment{{Start: 100, Size: 25}, {Start: 125, Size: 25}}}

	buf := make([]byte, 0, 8192)
	decReq := Request{Results: make([]Record, 0, 4)}
	decRep := Reply{Grants: make([]sched.Assignment, 0, 4)}

	allocs := testing.AllocsPerRun(1000, func() {
		b, err := appendRequest(buf[:0], &req)
		if err != nil {
			panic(err)
		}
		if err := decodeRequest(b, &decReq); err != nil {
			panic(err)
		}
		b, err = appendReply(buf[:0], &rep)
		if err != nil {
			panic(err)
		}
		if err := decodeReply(b, &decRep); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("codec round trip allocates %.1f times per op, want 0", allocs)
	}
}

// ledgerCodecGuard pins the single-uvarint ledger frames to zero
// allocations per encode/decode pair.
func ledgerCodecGuard(t *testing.T) {
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(1000, func() {
		b, err := appendFetchAdd(buf[:0], 8)
		if err != nil {
			panic(err)
		}
		if _, err := decodeFetchAdd(b); err != nil {
			panic(err)
		}
		b = appendStep(buf[:0], 1<<40)
		if _, err := decodeStep(b); err != nil {
			panic(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("ledger codec round trip allocates %.1f times per op, want 0", allocs)
	}
}

// ledgerConnGuard runs the framed ledger dialogue exactly as the
// codec defines it — a request queued unflushed, a FetchAdd claim
// whose flush ships both frames in one segment, the step reply — and
// demands the steady state stays allocation-free.
func ledgerConnGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the framing path")
	}
	client, server := connPair(t)
	queued := Request{Worker: 1, Prefetch: true,
		Results: []Record{{Index: 7, Data: []byte{1, 2, 3, 4}}}}
	decReq := Request{Results: make([]Record, 0, 4)}

	cycle := func() {
		if err := client.QueueRequest(&queued); err != nil {
			panic(err)
		}
		if err := client.WriteFetchAdd(4); err != nil {
			panic(err)
		}
		kind, _, err := server.ReadClientFrame(&decReq)
		if err != nil || kind != KindRequest || len(decReq.Results) != 1 {
			panic("request dispatch failed")
		}
		kind, n, err := server.ReadClientFrame(&decReq)
		if err != nil || kind != KindFetchAdd || n != 4 {
			panic("fetchadd dispatch failed")
		}
		if err := server.WriteStep(12); err != nil {
			panic(err)
		}
		if step, err := client.ReadStep(); err != nil || step != 12 {
			panic("step round trip failed")
		}
	}
	cycle() // warm the scratch buffers and pools
	if allocs := testing.AllocsPerRun(1000, cycle); allocs >= 1 {
		t.Fatalf("ledger dialogue allocates %.1f times per op, want 0", allocs)
	}
}

// connGuard extends the guard through the framing layer: after
// warm-up, a full Send/ReadRequest + WriteReply/Recv
// cycle over a Conn allocates nothing. The bound is < 1 rather than
// == 0 only to tolerate a GC emptying the encode buffer pool
// mid-measurement.
func connGuard(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the framing path")
	}
	client, server := connPair(t)
	payload := bytes.Repeat([]byte{0x5A}, 1024)
	req := Request{
		Worker: 1, Credits: 4,
		Results: []Record{{Index: 7, Data: payload}},
	}
	rep := Reply{Grants: []sched.Assignment{{Start: 10, Size: 5}}}
	decReq := Request{Results: make([]Record, 0, 4)}
	decRep := Reply{Grants: make([]sched.Assignment, 0, 4)}

	cycle := func() {
		if err := client.Send(&req); err != nil {
			panic(err)
		}
		if err := server.ReadRequest(&decReq); err != nil {
			panic(err)
		}
		if err := server.WriteReply(&rep); err != nil {
			panic(err)
		}
		if err := client.Recv(&decRep); err != nil {
			panic(err)
		}
	}
	cycle() // warm the scratch buffers and pools
	if allocs := testing.AllocsPerRun(1000, cycle); allocs >= 1 {
		t.Fatalf("framed round trip allocates %.1f times per op, want 0", allocs)
	}
}
