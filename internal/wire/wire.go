// Package wire implements the binary wire protocol of the chunk
// runtimes: a length-prefixed, varint-headed framing codec for the
// master–slave self-scheduling dialogue that replaces net/rpc's
// reflective gob encoding on the hot path.
//
// Design constraints, in order:
//
//  1. No reflection and no per-frame allocations on the steady-state
//     path. Frames encode into pooled buffers (sync.Pool) and decode
//     into caller-owned structs whose slices are reused call over
//     call; decoded []byte payloads alias the connection's read
//     buffer and are valid until the next Read on the same Conn.
//  2. The decoder must never panic and never over-allocate on
//     corrupt, truncated or oversized input: every count is validated
//     against the bytes actually present before memory is reserved,
//     and the frame-body buffer grows incrementally as payload bytes
//     arrive, so a lying length header cannot reserve gigabytes.
//  3. One frame carries a batch. A request ships N completion
//     records and asks for up to Credits grants; a reply grants up to
//     that many chunks. This generalises the RPC runtime's two-slot
//     prefetch to a configurable credit window.
//
// Frame layout (see docs/PROTOCOL.md for the normative description):
//
//	uvarint bodyLen | body
//
//	request body: 0x01 | uvarint worker | uvarint acp |
//	              fixed64 compSeconds | fixed64 idleSeconds |
//	              flags (bit0 prefetch, bit1 record spans, bit3 runs;
//	                     bit2 reserved, rejected) |
//	              uvarint credits |
//	              uvarint nResults | nResults × record |
//	              [nResults × uvarint span]          (iff bit1 set)
//	record:       uvarint index | uvarint dataLen | dataLen bytes
//	              (bit3 set: uvarint dataLen<<1 | dataLen bytes, or
//	               uvarint count<<1|1 — a run, no bytes)
//
//	reply body:   0x02 | flags (bit0 stop, bit1 error, bit2 spans,
//	                     bit3 runs) |
//	              [uvarint errLen | errLen bytes] |
//	              uvarint nGrants | nGrants × grant |
//	              [nGrants × uvarint span]           (iff bit2 set)
//	grant:        uvarint start | uvarint size
//	              (bit3 set: uvarint start | uvarint size | uvarint count —
//	               count chunks of size iterations from start)
//
//	fetchadd body: 0x03 | uvarint n                  (claim n steps)
//	step body:     0x04 | uvarint step               (first claimed step)
//
// FetchAdd/Step are a one-sided claim dialogue — claim n scheduling
// steps, get the first back — carrying a single uvarint each instead of
// a grant batch. It is codec-only: exec.Master does not answer it and
// drops a connection that sends it (docs/PROTOCOL.md "Codec-only
// frames"). Request flag bit2 is reserved: like every flag bit the
// decoder does not know, it fails decoding with ErrCorrupt.
//
// A completion record is a range, not an iteration: a run of count
// consecutive iterations whose kernel returned no bytes travels as one
// record (Record.Count). A request carrying a run sets the runs flag
// (bit3), and under it every record's length field is tagged
// len<<1 | isRun; a request without runs is byte-identical to protocol
// v1, so records that carry data pay nothing for the coding. A run of
// count 0, a run reaching past MaxFrame, and a runs flag on a frame with
// no run are corrupt.
//
// A grant is a run too: count equal, contiguous chunks travel as one
// grant (Reply.Counts). A reply carrying a run sets the runs flag
// (bit3), and under it every grant carries its count; a reply without
// runs is byte-identical to protocol v2. A run is never span-tagged — a
// master with a telemetry bus grants chunk by chunk — so the runs and
// span flags together are corrupt, and so are a count of 0, a run of
// empty chunks, a run reaching past MaxFrame and a runs flag on a reply
// with no run.
//
// Span blocks are optional trailing fields: a frame without the span
// flag is byte-identical to protocol v1, so span-aware and span-less
// peers interoperate on the same sniffed listener, and the gob
// fallback is unaffected. A span flag with a zero item count is
// rejected as non-canonical (the encoder never produces it), and so is
// any flag bit the decoder does not know, which keeps decode→re-encode
// byte-stable.
//
// A connection opens with a 4-byte preamble (Magic 'L' 'S' Version)
// written by the client, which lets a server share one listener
// between this protocol and net/rpc by sniffing the first byte: gob's
// self-describing streams never start with Magic.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"loopsched/internal/sched"
)

const (
	// Magic is the first byte of the connection preamble. It is
	// deliberately outside the range a gob stream can start with (gob
	// messages open with a small positive byte count), so a listener
	// can sniff one byte to tell the two protocols apart.
	Magic = 0xA7

	// Version is the protocol revision carried in the preamble's
	// fourth byte. A peer speaking any other revision is refused with
	// ErrVersion instead of misparsed: version 2 added run records,
	// which a version-1 peer would read as single iterations, and
	// version 3 run grants, which a version-2 peer would reject.
	Version = 3

	// MaxFrame bounds a frame body. Matches the mp transport's 1 GiB
	// sanity limit; anything larger is a corrupt or hostile header.
	MaxFrame = 1 << 30

	frameRequest  = 0x01
	frameReply    = 0x02
	frameFetchAdd = 0x03
	frameStep     = 0x04

	flagPrefetch    = 1 << 0
	flagRecordSpans = 1 << 1 // request carries one span id per record
	flagRuns        = 1 << 3 // request carries run records: record lengths are tagged
	requestFlags    = flagPrefetch | flagRecordSpans | flagRuns

	flagStop      = 1 << 0
	flagError     = 1 << 1
	flagSpans     = 1 << 2 // reply carries one span id per grant
	flagGrantRuns = 1 << 3 // reply carries run grants: every grant has a count
	replyFlags    = flagStop | flagError | flagSpans | flagGrantRuns
)

// Kind discriminates the client-originated frame types a server can
// receive on one connection.
type Kind byte

// Client frame kinds, as returned by Conn.ReadClientFrame.
const (
	KindRequest  Kind = frameRequest
	KindFetchAdd Kind = frameFetchAdd
)

// preamble is the client hello: Magic, "LS", Version.
var preamble = [4]byte{Magic, 'L', 'S', Version}

// Exported decode errors. Decode failures that carry positional
// detail wrap one of these, so callers can errors.Is them.
var (
	// ErrTooLarge marks a frame whose claimed body exceeds MaxFrame.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrCorrupt marks a structurally invalid frame body.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrVersion marks a preamble from an incompatible revision.
	ErrVersion = errors.New("wire: incompatible protocol version")
)

// ServerError is a protocol-level failure reported by the remote
// master inside a reply frame (the binary analogue of
// rpc.ServerError).
type ServerError string

func (e ServerError) Error() string { return string(e) }

// Record is one piggy-backed completion: the result of iteration Index,
// or — Count > 0 — a run of Count consecutive iterations from Index
// whose kernel returned no bytes, which carries no Data.
type Record struct {
	Index int
	Count int
	Data  []byte
}

// Iterations is how many iterations the record completes.
func (r Record) Iterations() int { return max(r.Count, 1) }

// Request is a slave's work request: the previous batch's completion
// records ride along, and Credits asks for up to that many grants in
// the reply. Spans, when non-empty, echoes one trace span id per
// record (same order); it must be empty or match len(Results).
type Request struct {
	Worker      int
	ACP         int
	CompSeconds float64
	IdleSeconds float64
	Prefetch    bool
	Credits     int
	Results     []Record
	Spans       []uint64
}

// iterations is how many iterations the request's records complete —
// the batch item count its frame reports to telemetry.
func (r *Request) iterations() int {
	n := 0
	for i := range r.Results {
		n += r.Results[i].Iterations()
	}
	return n
}

// reset clears the request for reuse, keeping slice capacity.
//
//lint:loopsched-hotpath
func (r *Request) reset() {
	r.Results = r.Results[:0]
	r.Spans = r.Spans[:0]
	*r = Request{Results: r.Results, Spans: r.Spans}
}

// Reply is the master's answer: up to Credits chunks, a stop flag, or
// a protocol error. Each grant is a range of iterations; Counts, when
// non-empty, says how many equal chunks each one is (same order, so it
// must be empty or match len(Grants)), and when empty every grant is one
// chunk. Spans, when non-empty, stamps one trace span id per grant (same
// order); it must be empty or match len(Grants), and a reply with spans
// carries no run.
type Reply struct {
	Stop   bool
	Err    string
	Grants []sched.Assignment
	Counts []int
	Spans  []uint64
}

// Reset clears the reply for reuse, keeping slice capacity.
//
//lint:loopsched-hotpath
func (r *Reply) Reset() {
	r.Grants = r.Grants[:0]
	r.Counts = r.Counts[:0]
	r.Spans = r.Spans[:0]
	*r = Reply{Grants: r.Grants, Counts: r.Counts, Spans: r.Spans}
}

// AddRun appends run as one grant. Counts is filled only from the first
// run of more than one chunk on, so a reply of single chunks never
// touches it.
//
//lint:loopsched-hotpath
func (r *Reply) AddRun(run sched.Run) {
	if run.Count > 1 || len(r.Counts) > 0 {
		for len(r.Counts) < len(r.Grants) {
			r.Counts = append(r.Counts, 1)
		}
		r.Counts = append(r.Counts, run.Count)
	}
	r.Grants = append(r.Grants, run.Range())
}

// Run returns grant i as a run.
func (r *Reply) Run(i int) sched.Run {
	g, n := r.Grants[i], 1
	if len(r.Counts) > 0 {
		n = r.Counts[i]
	}
	return sched.Run{Start: g.Start, Size: g.Size / n, Count: n}
}

// Chunks returns how many chunks the reply grants.
func (r *Reply) Chunks() int {
	if len(r.Counts) == 0 {
		return len(r.Grants)
	}
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// bufPool recycles frame encode buffers across connections.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// appendRequest encodes the request body (type byte included) onto b.
//
//lint:loopsched-hotpath
func appendRequest(b []byte, r *Request) ([]byte, error) {
	if r.Worker < 0 || r.ACP < 0 || r.Credits < 0 {
		return b, fmt.Errorf("%w: negative request field", ErrCorrupt)
	}
	if len(r.Spans) != 0 && len(r.Spans) != len(r.Results) {
		return b, fmt.Errorf("%w: %d spans for %d results", ErrCorrupt, len(r.Spans), len(r.Results))
	}
	b = append(b, frameRequest)
	b = binary.AppendUvarint(b, uint64(r.Worker))
	b = binary.AppendUvarint(b, uint64(r.ACP))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.CompSeconds))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.IdleSeconds))
	var flags byte
	if r.Prefetch {
		flags |= flagPrefetch
	}
	if len(r.Spans) > 0 {
		flags |= flagRecordSpans
	}
	for i := range r.Results {
		if r.Results[i].Count != 0 {
			flags |= flagRuns
			break
		}
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(r.Credits))
	b = binary.AppendUvarint(b, uint64(len(r.Results)))
	for i := range r.Results {
		rec := &r.Results[i]
		switch {
		case rec.Index < 0 || rec.Count < 0:
			return b, fmt.Errorf("%w: negative result field", ErrCorrupt)
		case rec.Count > 0 && len(rec.Data) > 0:
			return b, fmt.Errorf("%w: a run carries data", ErrCorrupt)
		case rec.Count > 0 && rec.Count > MaxFrame-rec.Index:
			return b, fmt.Errorf("%w: run [%d, +%d) reaches past %d", ErrCorrupt, rec.Index, rec.Count, MaxFrame)
		}
		b = binary.AppendUvarint(b, uint64(rec.Index))
		switch {
		case rec.Count > 0:
			b = binary.AppendUvarint(b, uint64(rec.Count)<<1|1)
		case flags&flagRuns != 0:
			b = binary.AppendUvarint(b, uint64(len(rec.Data))<<1)
		default:
			b = binary.AppendUvarint(b, uint64(len(rec.Data)))
		}
		b = append(b, rec.Data...)
	}
	for _, s := range r.Spans {
		b = binary.AppendUvarint(b, s)
	}
	return b, nil
}

// appendReply encodes the reply body (type byte included) onto b.
//
//lint:loopsched-hotpath
func appendReply(b []byte, r *Reply) ([]byte, error) {
	if len(r.Spans) != 0 && len(r.Spans) != len(r.Grants) {
		return b, fmt.Errorf("%w: %d spans for %d grants", ErrCorrupt, len(r.Spans), len(r.Grants))
	}
	if len(r.Counts) != 0 && len(r.Counts) != len(r.Grants) {
		return b, fmt.Errorf("%w: %d counts for %d grants", ErrCorrupt, len(r.Counts), len(r.Grants))
	}
	b = append(b, frameReply)
	var flags byte
	if r.Stop {
		flags |= flagStop
	}
	if r.Err != "" {
		flags |= flagError
	}
	if len(r.Spans) > 0 {
		flags |= flagSpans
	}
	for _, c := range r.Counts {
		if c != 1 {
			flags |= flagGrantRuns
			break
		}
	}
	if flags&flagGrantRuns != 0 && flags&flagSpans != 0 {
		return b, fmt.Errorf("%w: a span-tagged reply carries a run", ErrCorrupt)
	}
	b = append(b, flags)
	if r.Err != "" {
		b = binary.AppendUvarint(b, uint64(len(r.Err)))
		b = append(b, r.Err...)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Grants)))
	for i, g := range r.Grants {
		if g.Start < 0 || g.Size < 0 {
			return b, fmt.Errorf("%w: negative grant field", ErrCorrupt)
		}
		b = binary.AppendUvarint(b, uint64(g.Start))
		if flags&flagGrantRuns == 0 {
			b = binary.AppendUvarint(b, uint64(g.Size))
			continue
		}
		if c := r.Counts[i]; c < 1 || g.Size%c != 0 || c > 1 && g.Size == 0 {
			return b, fmt.Errorf("%w: grant [%d, +%d) is not %d equal chunks", ErrCorrupt, g.Start, g.Size, c)
		}
		b = binary.AppendUvarint(b, uint64(g.Size/r.Counts[i]))
		b = binary.AppendUvarint(b, uint64(r.Counts[i]))
	}
	for _, s := range r.Spans {
		b = binary.AppendUvarint(b, s)
	}
	return b, nil
}

// decoder walks one frame body. All methods validate against the
// bytes that are actually present before touching memory.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) remaining() int { return len(d.b) - d.off }

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at offset %d", ErrCorrupt, d.off)
	}
	d.off += n
	return v, nil
}

// smallInt decodes a uvarint that must fit a non-negative int and be
// sane for a count/index (≤ MaxFrame).
func (d *decoder) smallInt(what string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > MaxFrame {
		return 0, fmt.Errorf("%w: %s %d out of range", ErrCorrupt, what, v)
	}
	return int(v), nil
}

func (d *decoder) float64() (float64, error) {
	if d.remaining() < 8 {
		return 0, fmt.Errorf("%w: truncated float at offset %d", ErrCorrupt, d.off)
	}
	bits := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

func (d *decoder) byte(what string) (byte, error) {
	if d.remaining() < 1 {
		return 0, fmt.Errorf("%w: missing %s", ErrCorrupt, what)
	}
	c := d.b[d.off]
	d.off++
	return c, nil
}

// bytes returns n payload bytes aliasing the frame buffer.
func (d *decoder) bytes(n int, what string) ([]byte, error) {
	if n > d.remaining() {
		return nil, fmt.Errorf("%w: %s claims %d bytes, %d left", ErrCorrupt, what, n, d.remaining())
	}
	p := d.b[d.off : d.off+n : d.off+n]
	d.off += n
	return p, nil
}

// decodeRequest parses a request body into r, reusing r.Results.
// Record data aliases body.
//
//lint:loopsched-hotpath
func decodeRequest(body []byte, r *Request) error {
	d := decoder{b: body}
	typ, err := d.byte("frame type")
	if err != nil {
		return err
	}
	if typ != frameRequest {
		return fmt.Errorf("%w: want request frame, got type 0x%02x", ErrCorrupt, typ)
	}
	r.reset()
	if r.Worker, err = d.smallInt("worker"); err != nil {
		return err
	}
	if r.ACP, err = d.smallInt("acp"); err != nil {
		return err
	}
	if r.CompSeconds, err = d.float64(); err != nil {
		return err
	}
	if r.IdleSeconds, err = d.float64(); err != nil {
		return err
	}
	flags, err := d.byte("flags")
	if err != nil {
		return err
	}
	if flags&^requestFlags != 0 {
		return fmt.Errorf("%w: unknown request flags 0x%02x", ErrCorrupt, flags&^requestFlags)
	}
	r.Prefetch = flags&flagPrefetch != 0
	if r.Credits, err = d.smallInt("credits"); err != nil {
		return err
	}
	n, err := d.smallInt("result count")
	if err != nil {
		return err
	}
	// Each record takes at least two bytes; a count beyond that is a
	// lie — reject before reserving anything.
	if n > d.remaining()/2 {
		return fmt.Errorf("%w: %d results cannot fit in %d bytes", ErrCorrupt, n, d.remaining())
	}
	//lint:loopsched-ignore hotalloc bounded one-off growth of the reused record slice, in one step
	r.Results = slices.Grow(r.Results, n)[:n]
	tagged, runs := flags&flagRuns != 0, false
	for i := range r.Results {
		index, err := d.smallInt("result index")
		if err != nil {
			return err
		}
		size, err := d.uvarint()
		if err != nil {
			return err
		}
		if tagged {
			run := size&1 != 0
			size >>= 1
			if run {
				if size == 0 || size > uint64(MaxFrame-index) {
					return fmt.Errorf("%w: run of %d from %d", ErrCorrupt, size, index)
				}
				r.Results[i], runs = Record{Index: index, Count: int(size)}, true
				continue
			}
		}
		if size > MaxFrame {
			return fmt.Errorf("%w: result size %d out of range", ErrCorrupt, size)
		}
		data, err := d.bytes(int(size), "result data")
		if err != nil {
			return err
		}
		r.Results[i] = Record{Index: index, Data: data}
	}
	if tagged && !runs {
		return fmt.Errorf("%w: runs flag with no run", ErrCorrupt)
	}
	if flags&flagRecordSpans != 0 {
		if n == 0 {
			return fmt.Errorf("%w: span flag with no records", ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			s, err := d.uvarint()
			if err != nil {
				return err
			}
			r.Spans = append(r.Spans, s)
		}
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return nil
}

// decodeReply parses a reply body into r, reusing r.Grants.
//
//lint:loopsched-hotpath
func decodeReply(body []byte, r *Reply) error {
	d := decoder{b: body}
	typ, err := d.byte("frame type")
	if err != nil {
		return err
	}
	if typ != frameReply {
		return fmt.Errorf("%w: want reply frame, got type 0x%02x", ErrCorrupt, typ)
	}
	r.Reset()
	flags, err := d.byte("flags")
	if err != nil {
		return err
	}
	if flags&^replyFlags != 0 {
		return fmt.Errorf("%w: unknown reply flags 0x%02x", ErrCorrupt, flags&^replyFlags)
	}
	r.Stop = flags&flagStop != 0
	if flags&flagError != 0 {
		size, err := d.smallInt("error size")
		if err != nil {
			return err
		}
		msg, err := d.bytes(size, "error text")
		if err != nil {
			return err
		}
		// Error replies are terminal, never steady-state, so the string
		// copy is allowed; the directive records that for escapecheck,
		// which would otherwise flag the compiler's []byte->string
		// allocation inside this hot function.
		//lint:loopsched-ignore hotalloc error replies are off the steady-state path
		r.Err = string(msg)
	}
	n, err := d.smallInt("grant count")
	if err != nil {
		return err
	}
	runs, width := flags&flagGrantRuns != 0, 2 // the fewest bytes a grant takes
	if runs {
		if flags&flagSpans != 0 {
			return fmt.Errorf("%w: span-tagged run grants", ErrCorrupt)
		}
		width = 3
	}
	if n > d.remaining()/width {
		return fmt.Errorf("%w: %d grants cannot fit in %d bytes", ErrCorrupt, n, d.remaining())
	}
	run := false // a grant of more than one chunk seen
	for i := 0; i < n; i++ {
		var g sched.Assignment
		if g.Start, err = d.smallInt("grant start"); err != nil {
			return err
		}
		if g.Size, err = d.smallInt("grant size"); err != nil {
			return err
		}
		if runs {
			c, err := d.smallInt("grant chunks")
			if err != nil {
				return err
			}
			switch {
			case c < 1 || c > 1 && g.Size < 1:
				return fmt.Errorf("%w: run of %d chunks of %d", ErrCorrupt, c, g.Size)
			case g.Size > 0 && c > (MaxFrame-g.Start)/g.Size:
				return fmt.Errorf("%w: run of %d chunks of %d from %d reaches past %d", ErrCorrupt, c, g.Size, g.Start, MaxFrame)
			}
			g.Size *= c
			r.Counts = append(r.Counts, c)
			run = run || c > 1
		}
		r.Grants = append(r.Grants, g)
	}
	if runs && !run {
		return fmt.Errorf("%w: runs flag with no run", ErrCorrupt)
	}
	if flags&flagSpans != 0 {
		if n == 0 {
			return fmt.Errorf("%w: span flag with no grants", ErrCorrupt)
		}
		for i := 0; i < n; i++ {
			s, err := d.uvarint()
			if err != nil {
				return err
			}
			r.Spans = append(r.Spans, s)
		}
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return nil
}

// appendFetchAdd encodes a ledger claim of n steps (type byte
// included) onto b. n must be positive: a zero-step claim is useless
// and the encoder refusing it keeps the codec canonical.
//
//lint:loopsched-hotpath
func appendFetchAdd(b []byte, n int) ([]byte, error) {
	if n <= 0 {
		return b, fmt.Errorf("%w: non-positive fetchadd count %d", ErrCorrupt, n)
	}
	b = append(b, frameFetchAdd)
	b = binary.AppendUvarint(b, uint64(n))
	return b, nil
}

// decodeFetchAdd parses a fetchadd body and returns the claimed step
// count. The count is bounded like every other wire count, so a lying
// client cannot make the server's ledger wrap within one claim.
//
//lint:loopsched-hotpath
func decodeFetchAdd(body []byte) (int, error) {
	d := decoder{b: body}
	typ, err := d.byte("frame type")
	if err != nil {
		return 0, err
	}
	if typ != frameFetchAdd {
		return 0, fmt.Errorf("%w: want fetchadd frame, got type 0x%02x", ErrCorrupt, typ)
	}
	n, err := d.smallInt("fetchadd count")
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("%w: zero-step fetchadd", ErrCorrupt)
	}
	if d.remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return n, nil
}

// appendStep encodes the ledger's answer — the first claimed step —
// onto b. The full uint64 range is legal: a step at or past the
// table's end is the protocol's "drained" signal, and a counter that
// has run far past the end is still a valid (wasted) claim.
//
//lint:loopsched-hotpath
func appendStep(b []byte, step uint64) []byte {
	b = append(b, frameStep)
	b = binary.AppendUvarint(b, step)
	return b
}

// decodeStep parses a step body. Lying or hostile step values need no
// range check here: the claim-then-check protocol discards any step
// past Table.Steps() at the lookup, so the decoder only guards
// structure (type byte, truncation, trailing bytes) — never allocates.
//
//lint:loopsched-hotpath
func decodeStep(body []byte) (uint64, error) {
	d := decoder{b: body}
	typ, err := d.byte("frame type")
	if err != nil {
		return 0, err
	}
	if typ != frameStep {
		return 0, fmt.Errorf("%w: want step frame, got type 0x%02x", ErrCorrupt, typ)
	}
	step, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if d.remaining() != 0 {
		return 0, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, d.remaining())
	}
	return step, nil
}
