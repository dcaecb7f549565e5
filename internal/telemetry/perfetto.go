package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
)

// PerfettoWriter is a bus Subscriber that streams events as Chrome
// trace-event JSON (the "JSON Array Format" with a traceEvents
// wrapper), loadable in Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Layout: each run is one "process" (pid = run ordinal), each worker
// one "thread" (tid = worker id), so every worker gets its own track.
// Scheduler tenants get their own processes (pid = tenantPidBase +
// tenant id) named from JobMeta, so a multi-tenant trace groups each
// tenant's chunks under a readable track. ChunkCompleted events — runs
// of equal chunks — become complete ("X") slices on the worker's track,
// with the run's chunk count in their args; steals, timeouts and stage
// advances become instant ("i") events; span-tagged grants and
// completions become flow ("s"/"f") events keyed by the span id, so one
// run draws one arrow from grant to completion even across processes.
// Timestamps are microseconds on the backend clock (bus epoch for real
// backends, virtual time for sim).
//
// The writer never seeks: JSON is emitted strictly append-only so it
// can stream to a pipe, and Close finishes the document.
type PerfettoWriter struct {
	mu      sync.Mutex
	bw      *bufio.Writer
	run     int             // current pid; 0 until the first BeginRun
	first   bool            // no event emitted yet (controls comma placement)
	tenants map[int]bool    // tenant process tracks already named
	threads map[[2]int]bool // (pid, tid) thread tracks already named
	err     error
}

// tenantPidBase offsets tenant process ids away from run ordinals.
const tenantPidBase = 1000

// NewPerfettoWriter starts a trace-event document on w. The caller
// must Close (directly or via Bus.Close) to finish the JSON.
func NewPerfettoWriter(w io.Writer) *PerfettoWriter {
	p := &PerfettoWriter{
		bw:      bufio.NewWriter(w),
		first:   true,
		tenants: make(map[int]bool),
		threads: make(map[[2]int]bool),
	}
	p.printf("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[")
	return p
}

// printf appends to the stream, latching the first error.
func (p *PerfettoWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.bw, format, args...)
}

// emit writes one raw trace-event object, handling the comma between
// array elements.
func (p *PerfettoWriter) emit(body string) {
	if p.first {
		p.first = false
	} else {
		p.printf(",")
	}
	p.printf("\n%s", body)
}

// BeginRun implements Subscriber: it opens a new "process" for the run
// and names its worker tracks.
func (p *PerfettoWriter) BeginRun(m RunMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.run++
	name := fmt.Sprintf("%s on %s (%s)", m.Scheme, m.Workload, m.Backend)
	p.emit(fmt.Sprintf(
		`{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":%s}}`,
		p.run, strconv.Quote(name)))
	for w := 0; w < m.Workers; w++ {
		p.threads[[2]int{p.run, w}] = true
		p.emit(fmt.Sprintf(
			`{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"PE %d"}}`,
			p.run, w, w))
	}
}

// BeginJob implements JobObserver: the first job of each tenant names
// the tenant's process track with the tenant metadata, so service-run
// traces group chunks per tenant under a readable heading.
func (p *PerfettoWriter) BeginJob(m JobMeta) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if m.Tenant == 0 || p.tenants[m.Tenant] {
		return
	}
	p.tenants[m.Tenant] = true
	name := m.TenantName
	if name == "" {
		name = fmt.Sprintf("tenant-%d", m.Tenant)
	}
	p.emit(fmt.Sprintf(
		`{"name":"process_name","ph":"M","ts":0,"pid":%d,"tid":0,"args":{"name":%s}}`,
		tenantPidBase+m.Tenant, strconv.Quote(fmt.Sprintf("tenant %s", name))))
}

// pidFor places an event: tenant-tagged events land in the tenant's
// process, everything else in the current run's. Callers hold p.mu.
func (p *PerfettoWriter) pidFor(e Event) int {
	if e.Tenant != 0 {
		return tenantPidBase + e.Tenant
	}
	return p.run
}

// nameThread lazily names a worker track the first time an event lands
// on it (tenant processes have no BeginRun to pre-name their workers).
// Callers hold p.mu.
func (p *PerfettoWriter) nameThread(pid, tid int) {
	k := [2]int{pid, tid}
	if p.threads[k] {
		return
	}
	p.threads[k] = true
	p.emit(fmt.Sprintf(
		`{"name":"thread_name","ph":"M","ts":0,"pid":%d,"tid":%d,"args":{"name":"PE %d"}}`,
		pid, tid, tid))
}

// OnEvent implements Subscriber.
func (p *PerfettoWriter) OnEvent(e Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.run == 0 {
		p.run = 1 // events without a BeginRun still land in a process
	}
	us := e.At * 1e6
	switch e.Kind {
	case ChunkGranted, ChunkPrefetched:
		// Span-tagged grants open a flow, one per run: the arrow's tail
		// sits on the granted worker's track at the grant instant.
		if e.Span != 0 {
			pid := p.pidFor(e)
			p.nameThread(pid, e.Worker)
			p.emit(fmt.Sprintf(
				`{"name":"chunk-flow","cat":"flow","ph":"s","id":%d,"ts":%s,"pid":%d,"tid":%d,"args":{"start":%d,"size":%d,"count":%d,"job":%d}}`,
				e.Span, jsonNum(us), pid, e.Worker, e.Start, e.Size, e.Chunks(), e.Job))
		}
	case ChunkCompleted:
		// One complete slice per computed run: [At-Seconds, At], its
		// chunks in count.
		pid := p.pidFor(e)
		p.nameThread(pid, e.Worker)
		dur := e.Seconds * 1e6
		p.emit(fmt.Sprintf(
			`{"name":"chunk","cat":"chunk","ph":"X","ts":%s,"dur":%s,"pid":%d,"tid":%d,"args":{"start":%d,"size":%d,"count":%d,"shard":%d,"acp":%d,"job":%d}}`,
			jsonNum(us-dur), jsonNum(dur), pid, e.Worker, e.Start, e.Size, e.Chunks(), e.Shard, e.ACP, e.Job))
		if e.Span != 0 {
			// Close the chunk's flow on the completion slice.
			p.emit(fmt.Sprintf(
				`{"name":"chunk-flow","cat":"flow","ph":"f","bp":"e","id":%d,"ts":%s,"pid":%d,"tid":%d}`,
				e.Span, jsonNum(us), pid, e.Worker))
		}
	case ShardStealDone:
		p.emit(fmt.Sprintf(
			`{"name":"steal","cat":"steal","ph":"i","s":"p","ts":%s,"pid":%d,"tid":%d,"args":{"thief":%d,"victim":%d,"start":%d,"size":%d}}`,
			jsonNum(us), p.run, e.Worker, e.Worker, e.Shard, e.Start, e.Size))
	case WorkerTimedOut:
		p.emit(fmt.Sprintf(
			`{"name":"timeout","cat":"fault","ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{"shard":%d}}`,
			jsonNum(us), p.run, e.Worker, e.Shard))
	case WorkerRejected:
		p.emit(fmt.Sprintf(
			`{"name":"rejected","cat":"fault","ph":"i","s":"t","ts":%s,"pid":%d,"tid":%d,"args":{"shard":%d}}`,
			jsonNum(us), p.run, e.Worker, e.Shard))
	case StageAdvanced:
		p.emit(fmt.Sprintf(
			`{"name":"stage","cat":"stage","ph":"i","s":"p","ts":%s,"pid":%d,"tid":%d,"args":{"shard":%d}}`,
			jsonNum(us), p.run, e.Worker, e.Shard))
	}
}

// jsonNum formats a float as a JSON number: fixed-point (trace-event
// ts/dur are microseconds; sub-µs precision is kept to 3 decimals) and
// never NaN/Inf/exponent notation, which some trace viewers reject.
func jsonNum(v float64) string {
	if v != v || v > 1e18 || v < -1e18 {
		return "0"
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// Close implements Subscriber: it terminates the JSON document and
// flushes, returning the first error seen while streaming.
func (p *PerfettoWriter) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.printf("\n]}\n")
	if err := p.bw.Flush(); err != nil && p.err == nil {
		p.err = err
	}
	return p.err
}
