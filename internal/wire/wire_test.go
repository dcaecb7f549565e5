package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"slices"
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// pipeEnd is one direction of an in-memory duplex pipe: reads drain
// one buffer, writes fill the other. The tests drive the protocol's
// strict request/reply alternation single-threaded, so plain buffers
// suffice — data is always written before the peer reads it.
type pipeEnd struct {
	r *bytes.Buffer
	w *bytes.Buffer
}

func (p pipeEnd) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p pipeEnd) Write(b []byte) (int, error) { return p.w.Write(b) }
func (p pipeEnd) Close() error                { return nil }

// connPair builds a client and server Conn joined back to back. The
// client's preamble is consumed the way the listener sniffer would.
func connPair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	var c2s, s2c bytes.Buffer
	client, err := NewClient(pipeEnd{r: &s2c, w: &c2s})
	if err != nil {
		t.Fatal(err)
	}
	// The preamble sits in the client's write buffer until the first
	// frame flushes it; force it out so the server can consume it.
	if err := client.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	server := NewServer(pipeEnd{r: &c2s, w: &s2c}, nil)
	if err := ConsumePreamble(server.br); err != nil {
		t.Fatal(err)
	}
	return client, server
}

func sampleRequests() []Request {
	return []Request{
		{},
		{Worker: 3, ACP: 17, CompSeconds: 1.25, IdleSeconds: 0.5, Credits: 4},
		{Worker: 0, Prefetch: true, Credits: 1, Results: []Record{{Index: 0, Data: nil}}},
		{
			Worker: 250, ACP: 1 << 20, CompSeconds: -3.5, IdleSeconds: 1e300,
			Prefetch: true, Credits: 8,
			Results: []Record{
				{Index: 7, Data: []byte{1, 2, 3}},
				{Index: 1 << 28, Data: bytes.Repeat([]byte{0xAB}, 10000)},
				{Index: 9, Data: []byte{}},
			},
		},
		{
			Worker: 2, ACP: 50, Credits: 4,
			Results: []Record{
				{Index: 3, Data: []byte{9}},
				{Index: 4, Data: []byte{8, 7}},
			},
			Spans: []uint64{1<<40 | 101, 0},
		},
		{
			Worker: 5, Prefetch: true,
			Results: []Record{{Index: 12, Data: []byte{6, 6, 6}}},
		},
		// Run records: alone, with no credits, mixed with data records
		// (an empty one among them), and mixed with a span block.
		{Worker: 1, Credits: 8, Results: []Record{{Index: 0, Count: 256}}},
		{Worker: 4, Results: []Record{{Index: 1 << 20, Count: 1}}},
		{
			Worker: 6, Prefetch: true, Credits: 3,
			Results: []Record{
				{Index: 0, Count: 3},
				{Index: 3, Data: []byte{1, 2}},
				{Index: 4, Data: []byte{}},
				{Index: 5, Count: 1},
				{Index: 1 << 29, Count: 1 << 29},
			},
		},
		{
			Worker: 7, Credits: 1,
			Results: []Record{{Index: 40, Count: 8}, {Index: 48, Data: []byte{0xEE}}},
			Spans:   []uint64{1<<40 | 40, 1<<40 | 48},
		},
	}
}

// reqHeader is a request body up to and including its flags and
// credits, every other field zero.
func reqHeader(flags byte) []byte {
	b := []byte{frameRequest, 0, 0}
	b = append(b, make([]byte, 16)...)
	return append(b, flags, 0)
}

func sampleReplies() []Reply {
	return []Reply{
		{},
		{Stop: true},
		{Err: "no such worker 9"},
		{Stop: true, Err: "cancelled"},
		{Grants: []sched.Assignment{{Start: 0, Size: 1}}},
		{Grants: []sched.Assignment{{Start: 100, Size: 50}, {Start: 150, Size: 25}, {Start: 1 << 29, Size: 1 << 29}}},
		{
			Grants: []sched.Assignment{{Start: 0, Size: 10}, {Start: 10, Size: 5}},
			Spans:  []uint64{1, 11},
		},
		// Runs: one of 256 CSS(4) chunks, and a run between single chunks.
		{Grants: []sched.Assignment{{Start: 0, Size: 1024}}, Counts: []int{256}},
		{
			Grants: []sched.Assignment{{Start: 0, Size: 7}, {Start: 7, Size: 1 << 20}, {Start: 1<<20 + 7, Size: 3}},
			Counts: []int{1, 1 << 18, 1},
		},
	}
}

// spansEqual treats nil and empty as equal, like the slice reuse in
// the decoders.
func spansEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reqEqual compares decoded against sent, treating nil and empty
// slices as equal (the decoder reuses caller slices) and floats
// bit-for-bit (NaN payloads must survive the trip).
func reqEqual(a, b *Request) bool {
	if a.Worker != b.Worker || a.ACP != b.ACP ||
		math.Float64bits(a.CompSeconds) != math.Float64bits(b.CompSeconds) ||
		math.Float64bits(a.IdleSeconds) != math.Float64bits(b.IdleSeconds) ||
		a.Prefetch != b.Prefetch || a.Credits != b.Credits ||
		len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Results {
		if a.Results[i].Index != b.Results[i].Index || a.Results[i].Count != b.Results[i].Count ||
			!bytes.Equal(a.Results[i].Data, b.Results[i].Data) {
			return false
		}
	}
	return spansEqual(a.Spans, b.Spans)
}

func repEqual(a, b *Reply) bool {
	if a.Stop != b.Stop || a.Err != b.Err || len(a.Grants) != len(b.Grants) {
		return false
	}
	for i := range a.Grants {
		if a.Grants[i] != b.Grants[i] || a.Run(i) != b.Run(i) {
			return false
		}
	}
	return spansEqual(a.Spans, b.Spans)
}

func TestRequestRoundTrip(t *testing.T) {
	var got Request
	for i, want := range sampleRequests() {
		body, err := appendRequest(nil, &want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if err := decodeRequest(body, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !reqEqual(&want, &got) {
			t.Errorf("case %d: round trip mismatch:\nsent %+v\ngot  %+v", i, want, got)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var got Reply
	for i, want := range sampleReplies() {
		body, err := appendReply(nil, &want)
		if err != nil {
			t.Fatalf("case %d: encode: %v", i, err)
		}
		if err := decodeReply(body, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		if !repEqual(&want, &got) {
			t.Errorf("case %d: round trip mismatch:\nsent %+v\ngot  %+v", i, want, got)
		}
	}
}

func TestEncodeRejectsNegativeFields(t *testing.T) {
	for i, r := range []Request{
		{Worker: -1},
		{ACP: -1},
		{Credits: -1},
		{Results: []Record{{Index: -1}}},
		{Results: []Record{{Index: 1, Count: -1}}},
		{Results: []Record{{Index: 1, Count: 2, Data: []byte{1}}}},
		{Results: []Record{{Index: MaxFrame - 1, Count: 2}}},
	} {
		if _, err := appendRequest(nil, &r); !errors.Is(err, ErrCorrupt) {
			t.Errorf("request case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	for i, r := range []Reply{
		{Grants: []sched.Assignment{{Start: -1, Size: 1}}},
		{Grants: []sched.Assignment{{Start: 0, Size: -1}}},
		// Runs: counts that do not match the grants, a count of 0, a
		// grant that is not count equal chunks, a run of empty chunks,
		// and a run with a span.
		{Grants: []sched.Assignment{{Start: 0, Size: 8}}, Counts: []int{2, 1}},
		{Grants: []sched.Assignment{{Start: 0, Size: 8}, {Start: 8, Size: 8}}, Counts: []int{2, 0}},
		{Grants: []sched.Assignment{{Start: 0, Size: 9}}, Counts: []int{2}},
		{Grants: []sched.Assignment{{Start: 0, Size: 0}}, Counts: []int{2}},
		{Grants: []sched.Assignment{{Start: 0, Size: 8}}, Counts: []int{2}, Spans: []uint64{1}},
	} {
		if _, err := appendReply(nil, &r); !errors.Is(err, ErrCorrupt) {
			t.Errorf("reply case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
}

// TestDecodeErrors feeds structurally broken bodies to both decoders.
// Every case must draw an error from both (a request body is never a
// valid reply and vice versa — the type byte differs), and none may
// panic.
func TestDecodeErrors(t *testing.T) {
	validReq, err := appendRequest(nil, &sampleRequests()[3])
	if err != nil {
		t.Fatal(err)
	}
	validRep, err := appendReply(nil, &sampleReplies()[5])
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"unknown type byte", []byte{0x7F}},
		{"truncated varint", []byte{frameRequest, 0x80}},
		{"request truncated floats", []byte{frameRequest, 0x01, 0x02, 0x00}},
		{"request truncated mid-frame", validReq[:len(validReq)/2]},
		{"request trailing bytes", append(append([]byte{}, validReq...), 0x00)},
		{"lying result count", append(append([]byte{}, validReq[:22]...), 0x00, 0x01, 0xFF, 0xFF, 0x03)},
		{"reply missing flags", []byte{frameReply}},
		{"reply error flag without text", []byte{frameReply, flagError}},
		{"reply error text truncated", []byte{frameReply, flagError, 0x10, 'x'}},
		{"lying grant count", []byte{frameReply, 0x00, 0xFF, 0xFF, 0x03, 0x01}},
		{"reply trailing bytes", append(append([]byte{}, validRep...), 0x00)},
		{"count over MaxFrame", append([]byte{frameReply, 0x00}, binary.AppendUvarint(nil, MaxFrame+1)...)},
		// Span-block corruption: the flag with nothing to attach spans
		// to is non-canonical, and a flagged frame must carry exactly
		// one span per item.
		{"request span flag without records", []byte{frameRequest, 0x00, 0x00, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, flagRecordSpans, 0x01, 0x00}},
		{"reply span flag without grants", []byte{frameReply, flagSpans, 0x00}},
		{"reply span block truncated", []byte{frameReply, flagSpans, 0x02, 0x00, 0x01, 0x01, 0x02, 0x07}},
		{"reply span block overlong", []byte{frameReply, flagSpans, 0x01, 0x00, 0x01, 0x07, 0x08}},
		// Run records: a run of nothing, a run reaching past MaxFrame, a
		// run tag under a frame without the runs flag (read as a data
		// length, it claims 513 bytes that are not there), and the flag
		// on a frame that holds no run.
		{"run of count 0", append(reqHeader(flagRuns), 0x01, 0x00, 0x01)},
		{"run past MaxFrame", append(append(reqHeader(flagRuns), 0x01),
			append(binary.AppendUvarint(nil, MaxFrame-1), 2<<1|1)...)},
		{"run tag without the runs flag", append(reqHeader(0), 0x01, 0x00, 0x81, 0x04)},
		{"runs flag with no run", append(reqHeader(flagRuns), 0x01, 0x00, 0x00)},
		// Flag bits the decoders do not know would be dropped on re-encode;
		// bit 2 is reserved.
		{"request stray flag bit", append(reqHeader(1<<5), 0x00)},
		{"request reserved flag bit 2", append(reqHeader(1<<2|flagPrefetch), 0x00)},
		{"reply stray flag bit", []byte{frameReply, 1 << 5, 0x00}},
		// Run grants: a count of 0, the flag on a reply whose every grant
		// is one chunk, a run of empty chunks, a run reaching past
		// MaxFrame and one whose iterations would overflow a 32-bit int,
		// runs under the span flag, and a grant count no run grant's
		// three bytes can back.
		{"run grant of count 0", []byte{frameReply, flagGrantRuns, 0x01, 0x00, 0x04, 0x00}},
		{"runs flag with no run grant", []byte{frameReply, flagGrantRuns, 0x02, 0x00, 0x04, 0x01, 0x04, 0x04, 0x01}},
		{"run of empty chunks", []byte{frameReply, flagGrantRuns, 0x01, 0x00, 0x00, 0x02}},
		{"run grant past MaxFrame", append(append([]byte{frameReply, flagGrantRuns, 0x01},
			binary.AppendUvarint(nil, MaxFrame-8)...), 0x04, 0x03)},
		{"run grant overflowing int", append(append([]byte{frameReply, flagGrantRuns, 0x01, 0x00},
			binary.AppendUvarint(nil, MaxFrame)...), binary.AppendUvarint(nil, MaxFrame)...)},
		{"run grants under the span flag", []byte{frameReply, flagGrantRuns | flagSpans, 0x01, 0x00, 0x04, 0x02, 0x05}},
		{"lying run grant count", []byte{frameReply, flagGrantRuns, 0x03, 0x00, 0x04, 0x02, 0x08, 0x04}},
	}
	for _, c := range cases {
		var req Request
		if err := decodeRequest(c.body, &req); err == nil {
			t.Errorf("decodeRequest(%s): no error", c.name)
		}
		var rep Reply
		if err := decodeReply(c.body, &rep); err == nil {
			t.Errorf("decodeReply(%s): no error", c.name)
		}
	}
}

// TestSpanlessEncodingMatchesV1 pins the span-free encodings to the
// protocol-v1 byte layout with hand-built golden frames: enabling span
// support must not move a single byte of a frame that carries no
// spans, so span-less peers keep interoperating.
func TestSpanlessEncodingMatchesV1(t *testing.T) {
	req := Request{Worker: 3, ACP: 17, CompSeconds: 1.0, Credits: 2,
		Results: []Record{{Index: 7, Data: []byte{0xAA, 0xBB}}}}
	golden := []byte{frameRequest, 3, 17}
	golden = binary.LittleEndian.AppendUint64(golden, math.Float64bits(1.0))
	golden = binary.LittleEndian.AppendUint64(golden, math.Float64bits(0.0))
	golden = append(golden, 0x00, 2, 1, 7, 2, 0xAA, 0xBB)
	body, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("span-less request encoding drifted from v1:\ngot  % x\nwant % x", body, golden)
	}

	rep := Reply{Grants: []sched.Assignment{{Start: 100, Size: 50}, {Start: 150, Size: 25}}}
	repGolden := []byte{frameReply, 0x00, 2, 100, 50, 150, 1, 25}
	repBody, err := appendReply(nil, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(repBody, repGolden) {
		t.Errorf("span-less reply encoding drifted from v1:\ngot  % x\nwant % x", repBody, repGolden)
	}
}

// TestRunGrantsCarryACount pins the run grant coding: a reply with a run
// sets the runs flag and gives every grant a count, its size being one
// chunk's, while the same grants as single chunks encode as protocol v2
// (TestSpanlessEncodingMatchesV1). Decoding gives the grant back as the
// run's whole range, and re-encoding the same bytes.
func TestRunGrantsCarryACount(t *testing.T) {
	rep := Reply{
		Grants: []sched.Assignment{{Start: 100, Size: 50}, {Start: 150, Size: 1024}},
		Counts: []int{1, 256},
	}
	golden := []byte{frameReply, flagGrantRuns, 2, 100, 50, 1, 150, 1, 4}
	golden = binary.AppendUvarint(golden, 256)
	body, err := appendReply(nil, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("run grant encoding:\ngot  % x\nwant % x", body, golden)
	}
	var got Reply
	if err := decodeReply(body, &got); err != nil {
		t.Fatal(err)
	}
	if !repEqual(&rep, &got) || got.Chunks() != 257 {
		t.Fatalf("round trip: sent %+v, got %+v (%d chunks)", rep, got, got.Chunks())
	}
	if re, err := appendReply(nil, &got); err != nil || !bytes.Equal(re, body) {
		t.Errorf("re-encoding: % x, %v; want % x", re, err, body)
	}
	if r := got.Run(1); r != (sched.Run{Start: 150, Size: 4, Count: 256}) {
		t.Errorf("grant 1 reads as %+v, want 256 chunks of 4 from 150", r)
	}
	// Counts of one only are no run: the v2 bytes, and no counts back.
	single := Reply{Grants: rep.Grants[:1], Counts: []int{1}}
	if body, err := appendReply(nil, &single); err != nil || !bytes.Equal(body, []byte{frameReply, 0x00, 1, 100, 50}) {
		t.Errorf("a reply of single chunks encodes as % x, %v", body, err)
	}
}

// TestAddRunFillsCountsFromTheFirstRun: a reply built of single chunks
// never touches Counts — the gob path's one-grant buffer stays as it is —
// and the first run of more than one chunk backfills a count of one for
// the grants before it.
func TestAddRunFillsCountsFromTheFirstRun(t *testing.T) {
	var rep Reply
	rep.AddRun(sched.Run{Start: 0, Size: 8, Count: 1})
	rep.AddRun(sched.Run{Start: 8, Size: 4, Count: 1})
	if rep.Counts != nil || rep.Chunks() != 2 {
		t.Fatalf("single chunks: %+v", rep)
	}
	rep.AddRun(sched.Run{Start: 12, Size: 4, Count: 3})
	rep.AddRun(sched.Run{Start: 24, Size: 2, Count: 1})
	want := []sched.Assignment{{Start: 0, Size: 8}, {Start: 8, Size: 4}, {Start: 12, Size: 4}, {Start: 16, Size: 4}, {Start: 20, Size: 4}, {Start: 24, Size: 2}}
	if got := replyChunks(&rep); !slices.Equal(got, want) || !slices.Equal(rep.Counts, []int{1, 1, 3, 1}) || rep.Chunks() != 6 {
		t.Fatalf("reply %+v expands to %v, want %v", rep, got, want)
	}
	rep.Reset()
	if len(rep.Grants) != 0 || len(rep.Counts) != 0 {
		t.Fatalf("reset left %+v", rep)
	}
}

// TestRunRecordsTagLengths pins the run coding: a request with a run
// sets the runs flag and tags every record length len<<1 | isRun — data
// records included — while the same records without the run encode as
// protocol v1 (TestSpanlessEncodingMatchesV1).
func TestRunRecordsTagLengths(t *testing.T) {
	req := Request{Worker: 3, Credits: 2, Results: []Record{
		{Index: 7, Data: []byte{0xAA, 0xBB}},
		{Index: 8, Count: 300},
	}}
	golden := reqHeader(flagRuns)
	golden[1], golden[len(golden)-1] = 3, 2 // worker, credits
	golden = append(golden, 2, 7, 2<<1, 0xAA, 0xBB)
	golden = append(golden, 8)
	golden = binary.AppendUvarint(golden, 300<<1|1)
	body, err := appendRequest(nil, &req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, golden) {
		t.Errorf("run encoding:\ngot  % x\nwant % x", body, golden)
	}
	if got := req.iterations(); got != 301 {
		t.Errorf("the request completes %d iterations, want 301", got)
	}
}

// TestRunsThroughConnCountIterations sends a run-carrying request over
// a Conn with telemetry on: the frame's batch items are the iterations
// it completes, a run counting its length, on both ends.
func TestRunsThroughConnCountIterations(t *testing.T) {
	client, server := connPair(t)
	bus := telemetry.NewBus(0)
	log := &frameLog{}
	bus.Subscribe(log)
	client.SetTelemetry(bus, 1, 0)
	server.SetTelemetry(bus, -1, 0)
	req := sampleRequests()[8]
	if err := client.WriteRequest(&req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := server.ReadRequest(&got); err != nil {
		t.Fatal(err)
	}
	if !reqEqual(&req, &got) {
		t.Fatalf("request mismatch:\nsent %+v\ngot  %+v", req, got)
	}
	if err := bus.Close(); err != nil {
		t.Fatal(err)
	}
	want := 3 + 1 + 1 + 1 + 1<<29
	if len(log.items) != 2 || log.items[0] != want || log.items[1] != want {
		t.Errorf("frames report %v batch items, want %d sent and received", log.items, want)
	}
}

// frameLog records the batch item count of every wire frame event.
type frameLog struct{ items []int }

func (l *frameLog) BeginRun(telemetry.RunMeta) {}
func (l *frameLog) Close() error               { return nil }
func (l *frameLog) OnEvent(e telemetry.Event) {
	if e.Kind == telemetry.WireFrameSent || e.Kind == telemetry.WireFrameReceived {
		l.items = append(l.items, e.Start)
	}
}

// TestSpanEncodingAppendsOnly proves the grant sequence is
// byte-identical with and without span ids: a span-carrying reply is
// the span-less encoding with only the flag bit set and the span block
// appended after the grants.
func TestSpanEncodingAppendsOnly(t *testing.T) {
	grants := []sched.Assignment{{Start: 0, Size: 10}, {Start: 10, Size: 5}, {Start: 1 << 20, Size: 3}}
	spans := []uint64{5, 15, 1<<40 | 9}
	plain, err := appendReply(nil, &Reply{Grants: grants})
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := appendReply(nil, &Reply{Grants: grants, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}
	if len(tagged) <= len(plain) {
		t.Fatalf("tagged frame (%d bytes) not longer than plain (%d)", len(tagged), len(plain))
	}
	if tagged[0] != plain[0] {
		t.Errorf("type byte changed: %x vs %x", tagged[0], plain[0])
	}
	if tagged[1] != plain[1]|flagSpans {
		t.Errorf("flags = %x, want %x", tagged[1], plain[1]|flagSpans)
	}
	if !bytes.Equal(tagged[2:len(plain)], plain[2:]) {
		t.Errorf("grant bytes differ with spans enabled:\nplain  % x\ntagged % x", plain[2:], tagged[2:len(plain)])
	}
	var wantBlock []byte
	for _, s := range spans {
		wantBlock = binary.AppendUvarint(wantBlock, s)
	}
	if !bytes.Equal(tagged[len(plain):], wantBlock) {
		t.Errorf("span block = % x, want % x", tagged[len(plain):], wantBlock)
	}

	// Mismatched span counts must be rejected at encode time.
	if _, err := appendReply(nil, &Reply{Grants: grants, Spans: spans[:1]}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("span/grant count mismatch: err = %v, want ErrCorrupt", err)
	}
	if _, err := appendRequest(nil, &Request{Results: []Record{{Index: 1}}, Spans: []uint64{1, 2}}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("span/result count mismatch: err = %v, want ErrCorrupt", err)
	}
}

func TestConsumePreamble(t *testing.T) {
	cases := []struct {
		name string
		raw  []byte
		want error
	}{
		{"valid", preamble[:], nil},
		{"bad magic", []byte{0x01, 'L', 'S', Version}, ErrCorrupt},
		{"bad tag", []byte{Magic, 'X', 'S', Version}, ErrCorrupt},
		{"future version", []byte{Magic, 'L', 'S', Version + 1}, ErrVersion},
		{"v1 peer, which cannot read runs", []byte{Magic, 'L', 'S', 1}, ErrVersion},
		{"truncated", preamble[:2], io.ErrUnexpectedEOF},
	}
	for _, c := range cases {
		err := ConsumePreamble(newConn(pipeEnd{r: bytes.NewBuffer(c.raw)}, nil).br)
		if c.want == nil && err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestConnRoundTrip exercises the full framed dialogue over the
// in-memory pipe, both directions.
func TestConnRoundTrip(t *testing.T) {
	client, server := connPair(t)

	req := sampleRequests()[3]
	if err := client.WriteRequest(&req); err != nil {
		t.Fatal(err)
	}
	var got Request
	if err := server.ReadRequest(&got); err != nil {
		t.Fatal(err)
	}
	if !reqEqual(&req, &got) {
		t.Fatalf("request mismatch:\nsent %+v\ngot  %+v", req, got)
	}

	rep := sampleReplies()[5]
	if err := server.WriteReply(&rep); err != nil {
		t.Fatal(err)
	}
	var gotRep Reply
	if err := client.ReadReply(&gotRep); err != nil {
		t.Fatal(err)
	}
	if !repEqual(&rep, &gotRep) {
		t.Fatalf("reply mismatch:\nsent %+v\ngot  %+v", rep, gotRep)
	}
}

// TestCallServerError runs a real synchronous Call over net.Pipe: a
// reply carrying Err must surface as a ServerError, mirroring
// rpc.ServerError.
func TestCallServerError(t *testing.T) {
	cliEnd, srvEnd := net.Pipe()
	defer cliEnd.Close()
	defer srvEnd.Close()

	go func() {
		server := NewServer(srvEnd, nil)
		if err := ConsumePreamble(server.br); err != nil {
			return
		}
		var req Request
		if server.ReadRequest(&req) != nil {
			return
		}
		server.WriteReply(&Reply{Err: "no such worker 9"})
	}()

	client, err := NewClient(cliEnd)
	if err != nil {
		t.Fatal(err)
	}
	var req Request
	var rep Reply
	err = client.Call(&req, &rep)
	var sErr ServerError
	if !errors.As(err, &sErr) {
		t.Fatalf("Call err = %v (%T), want ServerError", err, err)
	}
	if sErr.Error() != "no such worker 9" {
		t.Fatalf("ServerError = %q", sErr)
	}
}

// TestFrameLimits: a header claiming more than MaxFrame is rejected
// before any body bytes are read, and a zero-length frame is corrupt.
func TestFrameLimits(t *testing.T) {
	var raw bytes.Buffer
	raw.Write(binary.AppendUvarint(nil, MaxFrame+1))
	c := newConn(pipeEnd{r: &raw}, nil)
	if _, err := c.readFrame(); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversized header: err = %v, want ErrTooLarge", err)
	}

	raw.Reset()
	raw.WriteByte(0)
	c = newConn(pipeEnd{r: &raw}, nil)
	if _, err := c.readFrame(); !errors.Is(err, ErrCorrupt) {
		t.Errorf("empty frame: err = %v, want ErrCorrupt", err)
	}
}

// TestLyingLengthDoesNotOverAllocate: a truncated stream whose header
// claims a huge body must fail with the scratch buffer grown only as
// far as bytes actually arrived — a lying header cannot reserve
// megabytes.
func TestLyingLengthDoesNotOverAllocate(t *testing.T) {
	var raw bytes.Buffer
	raw.Write(binary.AppendUvarint(nil, 512<<20)) // claims 512 MiB
	raw.Write([]byte{frameRequest, 1, 2, 3})      // …delivers 4 bytes
	c := newConn(pipeEnd{r: &raw}, nil)
	_, err := c.readFrame()
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want ErrUnexpectedEOF", err)
	}
	if cap(c.rbuf) > 64<<10 {
		t.Fatalf("scratch buffer grew to %d bytes on a truncated stream", cap(c.rbuf))
	}
}

// TestCleanEOFBetweenFrames: a connection closed between frames reads
// as plain io.EOF (the serve loops treat that as orderly shutdown),
// while one closed mid-frame does not.
func TestCleanEOFBetweenFrames(t *testing.T) {
	c := newConn(pipeEnd{r: &bytes.Buffer{}}, nil)
	if _, err := c.readFrame(); err != io.EOF {
		t.Fatalf("between frames: err = %v, want io.EOF", err)
	}

	var raw bytes.Buffer
	raw.Write(binary.AppendUvarint(nil, 10))
	raw.Write([]byte{frameRequest, 1})
	c = newConn(pipeEnd{r: &raw}, nil)
	if _, err := c.readFrame(); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("mid-frame: err = %v, want ErrUnexpectedEOF", err)
	}
}

// The codec and framing alloc guards live in hotguard_test.go,
// generated from the //lint:loopsched-hotpath annotations.

// FuzzWireDecode drives both decoders with arbitrary bodies. The
// contract under fuzz: errors are fine, panics are not, and any body
// that decodes successfully must round-trip through the encoder to an
// equivalent value (canonical form).
func FuzzWireDecode(f *testing.F) {
	for _, r := range sampleRequests() {
		if body, err := appendRequest(nil, &r); err == nil {
			f.Add(body)
		}
	}
	for _, r := range sampleReplies() {
		if body, err := appendReply(nil, &r); err == nil {
			f.Add(body)
		}
	}
	f.Add([]byte{frameRequest, 0x80})
	f.Add([]byte{frameReply, flagError, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// Ledger frames: a well-formed claim, a well-formed huge step, a
	// lying count past MaxFrame, a truncated varint, and trailing junk.
	if b, err := appendFetchAdd(nil, 8); err == nil {
		f.Add(b)
	}
	f.Add(appendStep(nil, 1<<63))
	f.Add([]byte{frameFetchAdd, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F})
	f.Add([]byte{frameFetchAdd, 0x80})
	f.Add([]byte{frameStep, 0x07, 0x07})
	// Run records the decoder must refuse — count 0, index+count past
	// MaxFrame, a run tag under a frame without the runs flag — and
	// frames with a flag bit no decoder knows.
	f.Add(append(reqHeader(flagRuns), 0x01, 0x00, 0x01))
	f.Add(append(append(reqHeader(flagRuns), 0x01), append(binary.AppendUvarint(nil, MaxFrame-1), 2<<1|1)...))
	f.Add(append(reqHeader(0), 0x01, 0x00, 0x81, 0x04))
	f.Add(append(reqHeader(0), 0x01, 0x00, 0x03, 0x01, 0x02, 0x03))
	f.Add(append(reqHeader(1<<5|flagPrefetch), 0x00))
	f.Add(append(reqHeader(1<<7), 0x00))
	f.Add([]byte{frameReply, 1<<5 | flagStop, 0x00})
	f.Add([]byte{frameReply, 1 << 7, 0x00})
	// Run grants the decoder must refuse: count 0, the runs flag with no
	// run, a run of empty chunks, one past MaxFrame, one overflowing a
	// 32-bit int, and runs under the span flag.
	f.Add([]byte{frameReply, flagGrantRuns, 0x01, 0x00, 0x04, 0x00})
	f.Add([]byte{frameReply, flagGrantRuns, 0x02, 0x00, 0x04, 0x01, 0x04, 0x04, 0x01})
	f.Add([]byte{frameReply, flagGrantRuns, 0x01, 0x00, 0x00, 0x02})
	f.Add(append(append([]byte{frameReply, flagGrantRuns, 0x01}, binary.AppendUvarint(nil, MaxFrame-8)...), 0x04, 0x03))
	f.Add(append(append([]byte{frameReply, flagGrantRuns, 0x01, 0x00}, binary.AppendUvarint(nil, MaxFrame)...), binary.AppendUvarint(nil, MaxFrame)...))
	f.Add([]byte{frameReply, flagGrantRuns | flagSpans, 0x01, 0x00, 0x04, 0x02, 0x05})

	f.Fuzz(func(t *testing.T, body []byte) {
		var req Request
		if err := decodeRequest(body, &req); err == nil {
			re, err := appendRequest(nil, &req)
			if err != nil {
				t.Fatalf("decoded request does not re-encode: %v (%+v)", err, req)
			}
			var req2 Request
			if err := decodeRequest(re, &req2); err != nil {
				t.Fatalf("re-encoded request does not decode: %v", err)
			}
			if !reqEqual(&req, &req2) {
				t.Fatalf("request not canonical:\nfirst  %+v\nsecond %+v", req, req2)
			}
		}
		var rep Reply
		if err := decodeReply(body, &rep); err == nil {
			re, err := appendReply(nil, &rep)
			if err != nil {
				t.Fatalf("decoded reply does not re-encode: %v (%+v)", err, rep)
			}
			var rep2 Reply
			if err := decodeReply(re, &rep2); err != nil {
				t.Fatalf("re-encoded reply does not decode: %v", err)
			}
			if !repEqual(&rep, &rep2) {
				t.Fatalf("reply not canonical:\nfirst  %+v\nsecond %+v", rep, rep2)
			}
			if re2, err := appendReply(nil, &rep2); err != nil || !bytes.Equal(re2, re) {
				t.Fatalf("reply re-encodes as % x, %v; first as % x", re2, err, re)
			}
			if len(rep.Counts) > 0 && len(rep.Counts) != len(rep.Grants) || cap(rep.Grants) > len(body) || cap(rep.Counts) > len(body) {
				t.Fatalf("reply of %d bytes decoded into %d grants (cap %d) and %d counts (cap %d)",
					len(body), len(rep.Grants), cap(rep.Grants), len(rep.Counts), cap(rep.Counts))
			}
		}
		if n, err := decodeFetchAdd(body); err == nil {
			if n <= 0 || n > MaxFrame {
				t.Fatalf("decodeFetchAdd accepted out-of-range count %d", n)
			}
			re, err := appendFetchAdd(nil, n)
			if err != nil {
				t.Fatalf("decoded fetchadd does not re-encode: %v (n=%d)", err, n)
			}
			if n2, err := decodeFetchAdd(re); err != nil || n2 != n {
				t.Fatalf("fetchadd not canonical: n=%d re=%d err=%v", n, n2, err)
			}
		}
		if step, err := decodeStep(body); err == nil {
			// Any uint64 is a legal step (lying values are discarded at
			// the table lookup), but the codec must stay canonical.
			re := appendStep(nil, step)
			if s2, err := decodeStep(re); err != nil || s2 != step {
				t.Fatalf("step not canonical: step=%d re=%d err=%v", step, s2, err)
			}
		}
	})
}

// replyChunks expands a reply's grants into their chunks, in order.
func replyChunks(rep *Reply) []sched.Assignment {
	var out []sched.Assignment
	for i := range rep.Grants {
		out = rep.Run(i).AppendChunks(out)
	}
	return out
}
