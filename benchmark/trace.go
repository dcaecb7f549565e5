package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"loopsched/internal/telemetry"
)

// span is one node of the traced pass's tree: suite → workload → cell →
// rep → {setup, run, verify}. Times are seconds since the suite began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	// Self is the span's duration minus what its children cover. For a
	// run span the children are the executed chunks, and the covered
	// part is the per-worker union of their intervals averaged over the
	// workers.
	Self float64 `json:"self"`
	// Chunks lists a run span's children compactly, one row per
	// executed chunk. Rows are written for the first repetition of each
	// cell; every run span carries ChunkCount.
	Chunks     []chunkSpan       `json:"chunks,omitempty"`
	ChunkCount int               `json:"chunk_count,omitempty"`
	Counts     map[string]uint64 `json:"counts,omitempty"` // telemetry events during a run span
	Attrs      map[string]any    `json:"attrs,omitempty"`

	parent  *span
	covered float64 // seconds of this span its children account for
}

// chunkSpan is one executed chunk under a run span.
type chunkSpan struct {
	Loop   int     `json:"loop"`
	Worker int     `json:"worker"`
	Start  int     `json:"start"`
	Size   int     `json:"size"`
	Begin  float64 `json:"begin"`
	End    float64 `json:"end"`
	BodyS  float64 `json:"body_s"` // harness-timed body seconds: serial cost of its iterations × executions
}

// tracer keeps the spans of one workload's traced pass in memory.
type tracer struct {
	clock func() float64
	spans []*span
}

func (t *tracer) begin(parent *span, name string) *span {
	s := &span{ID: len(t.spans) + 1, Name: name, Start: t.clock(), parent: parent}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.spans = append(t.spans, s)
	return s
}

// end closes the span (at the clock's reading now unless End is
// already set) and charges its duration to the parent.
func (t *tracer) end(s *span) {
	if s.End == 0 {
		s.End = t.clock()
	}
	s.Self = s.End - s.Start - s.covered
	if s.parent != nil {
		s.parent.covered += s.End - s.Start
	}
}

// write stores the tree as benchmark/out/trace-<workload>.json.
func (t *tracer) write(dir, workload string, head header) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	doc := struct {
		Header header  `json:"header"`
		Spans  []*span `json:"spans"`
	}{head, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// chunkRecorder is a bus subscriber that keeps every ChunkCompleted
// event of the repetition in flight. RunSpec.Trace is rebuilt from the
// same events, but JobSpec has no Trace field and a trace.Event drops
// the job id, so the harness listens itself on every path.
type chunkRecorder struct {
	loop atomic.Int64 // loop the sequential paths are running now

	mu     sync.Mutex
	events []recordedChunk
}

type recordedChunk struct {
	loop int
	e    telemetry.Event
}

func (c *chunkRecorder) BeginRun(telemetry.RunMeta) {}
func (c *chunkRecorder) Close() error               { return nil }

func (c *chunkRecorder) OnEvent(e telemetry.Event) {
	if e.Kind != telemetry.ChunkCompleted {
		return
	}
	c.mu.Lock()
	c.events = append(c.events, recordedChunk{loop: int(c.loop.Load()), e: e})
	c.mu.Unlock()
}

// take returns the chunks recorded since the last call, attributed to
// their loops: by job id on the service path, by the loop that was
// running on the others. offset moves bus-clock seconds onto the
// tracer's clock.
func (c *chunkRecorder) take(jobs []int, loops []*loop, offset float64) []chunkSpan {
	c.mu.Lock()
	evs := c.events
	c.events = nil
	c.mu.Unlock()
	byJob := make(map[int]int, len(jobs))
	for j, id := range jobs {
		byJob[id] = j
	}
	out := make([]chunkSpan, 0, len(evs))
	for _, rc := range evs {
		e := rc.e
		j := rc.loop
		if len(jobs) > 0 {
			var ok bool
			if j, ok = byJob[e.Job]; !ok {
				continue
			}
		}
		if j >= len(loops) || e.Start < 0 || e.Start+e.Size > loops[j].n {
			continue
		}
		out = append(out, chunkSpan{
			Loop: j, Worker: e.Worker, Start: e.Start, Size: e.Size,
			Begin: e.At - e.Seconds + offset, End: e.At + offset,
			BodyS: loops[j].bodySeconds(e.Start, e.Size),
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Begin < out[b].Begin })
	return out
}

// perWorker folds chunk spans into per-worker body seconds and the
// per-worker union of the chunk intervals.
func perWorker(chunks []chunkSpan, p int) (body, covered []float64) {
	body = make([]float64, p)
	covered = make([]float64, p)
	last := make([]float64, p) // end of the union so far; chunks are sorted by Begin
	for _, c := range chunks {
		if c.Worker < 0 || c.Worker >= p {
			continue
		}
		body[c.Worker] += c.BodyS
		b, e := c.Begin, c.End
		if b < last[c.Worker] {
			b = last[c.Worker]
		}
		if e > b {
			covered[c.Worker] += e - b
			last[c.Worker] = e
		}
	}
	return body, covered
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// imbalance is (max-min)/mean of the per-worker body seconds.
func imbalance(body []float64) float64 {
	m := mean(body)
	if m == 0 {
		return 0
	}
	lo, hi := body[0], body[0]
	for _, b := range body {
		if b < lo {
			lo = b
		}
		if b > hi {
			hi = b
		}
	}
	return (hi - lo) / m
}

// eventCounts flattens the aggregator state the budget needs into one
// map so two snapshots can be subtracted.
func eventCounts(s telemetry.Snapshot) map[string]uint64 {
	m := make(map[string]uint64, len(s.Events)+5)
	for k, v := range s.Events {
		m[k] = v
	}
	m["wire_frames_sent"] = s.WireSent.Frames
	m["wire_bytes_sent"] = s.WireSent.Bytes
	m["dropped"] = s.Dropped
	return m
}

func countsDelta(after, before map[string]uint64) map[string]uint64 {
	d := make(map[string]uint64, len(after))
	for k, v := range after {
		if v > before[k] {
			d[k] = v - before[k]
		}
	}
	return d
}
