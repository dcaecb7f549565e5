package telemetry

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"

	"loopsched/internal/telemetry/hist"
)

// latencyBuckets are the upper bounds (seconds) of the scheduling
// latency histogram, exponential from 1 µs to 10 s. A final implicit
// +Inf bucket catches the rest, per Prometheus convention.
var latencyBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1, 10,
}

// workerKey identifies a worker within a (possibly hierarchical) run.
type workerKey struct {
	Shard, Worker int
}

// workerStats accumulates per-worker counters.
type workerStats struct {
	Chunks     uint64  // chunks granted to the worker (direct + prefetched)
	Iterations uint64  // iterations granted
	Completed  uint64  // chunks the worker reported computed
	CompSec    float64 // computation seconds (sum of ChunkCompleted.Seconds)
	WaitSec    float64 // scheduling-latency seconds (a grant's latency once per chunk)
	ACP        int     // last reported available computing power, percent
}

// wireStats accumulates one direction of binary-protocol frame
// traffic (sent or received).
type wireStats struct {
	Frames   uint64  // frames on the wire
	Bytes    uint64  // bytes on the wire, length prefix included
	Items    uint64  // batch items carried (completed iterations or grants)
	CodecSec float64 // encode (sent) / decode (received) seconds
}

// TenantStats accumulates one scheduler tenant's share of the fleet.
// Chunks/Iterations are attributed from grant events carrying a
// non-zero Tenant tag, so they reconcile exactly with the per-job
// reports the scheduler returns.
type TenantStats struct {
	Name         string  // from JobMeta; "tenant-<id>" until announced
	Jobs         uint64  // jobs announced via BeginJob
	Finished     uint64  // jobs that completed every iteration
	Failed       uint64  // jobs that failed terminally
	Cancelled    uint64  // jobs cancelled
	Requeues     uint64  // failed attempts sent back for retry
	Chunks       uint64  // chunks granted to the tenant's jobs
	Iterations   uint64  // iterations granted to the tenant's jobs
	CompSec      float64 // computation seconds across the tenant's chunks
	QueueWaitSec float64 // admission-queue seconds across the tenant's jobs

	// Chunk-compute latency percentiles and the per-worker busy-time
	// imbalance CV, derived from the tenant's latency histogram at
	// snapshot time (zero until the tenant completes a chunk).
	CompP50 float64
	CompP95 float64
	CompP99 float64
	BusyCV  float64
}

// LatencyHists is the per-backend set of chunk-latency distributions
// the aggregator maintains: scheduling queue-wait (request to grant),
// computation, grant-to-complete, and the inferred communication slack
// (grant-to-complete minus computation, clamped at zero).
type LatencyHists struct {
	QueueWait       hist.Snapshot
	Comp            hist.Snapshot
	Comm            hist.Snapshot
	GrantToComplete hist.Snapshot
	// LedgerFetch is the scheduling-ledger claim latency (one
	// fetch-and-add); its Count is the backend's fetchadd total, 0 while
	// no runtime arms a table.
	LedgerFetch hist.Snapshot
}

// backendHists is the live (recording) form of LatencyHists.
type backendHists struct {
	queueWait hist.Hist
	comp      hist.Hist
	comm      hist.Hist
	g2c       hist.Hist
	ledger    hist.Hist
}

func (b *backendHists) snapshot() LatencyHists {
	return LatencyHists{
		QueueWait:       b.queueWait.Snapshot(),
		Comp:            b.comp.Snapshot(),
		Comm:            b.comm.Snapshot(),
		GrantToComplete: b.g2c.Snapshot(),
		LedgerFetch:     b.ledger.Snapshot(),
	}
}

// pendKey identifies an in-flight chunk for grant-to-complete pairing:
// a job's chunks partition its iteration space, so (job, start) is
// unique among outstanding chunks.
type pendKey struct{ Job, Start int }

// maxPending bounds the grant-to-complete pairing map so a run that
// loses completions (worker failures) cannot grow it without bound.
const maxPending = 1 << 16

// Aggregator is a bus Subscriber that maintains the counters behind
// the /metrics and /debug/vars endpoints. All methods are safe for
// concurrent use: OnEvent runs on the bus drainer while WriteProm runs
// on HTTP handler goroutines.
type Aggregator struct {
	droppedFn func() uint64 // reads the bus's dropped counter at render time

	mu         sync.Mutex
	meta       RunMeta
	runs       uint64
	kinds      [kindCount]uint64
	workers    map[workerKey]*workerStats
	tenants    map[int]*TenantStats
	queueDepth int // last JobQueueDepth gauge sample
	jobWaitSum float64
	jobWaitN   uint64
	wire       [2]wireStats // [0] sent, [1] received
	latCount   [9]uint64    // len(latencyBuckets)+1, last is +Inf
	latSum     float64
	latN       uint64

	hists      map[string]*backendHists // per-backend latency hists, keyed by RunMeta.Backend
	pending    map[pendKey]float64      // grant instant per in-flight chunk (g2c pairing)
	tenantComp map[int]*hist.Hist       // per-tenant chunk-compute latency
	tenantBusy map[int]map[int]float64  // tenant -> worker -> busy seconds
}

// NewAggregator creates an empty aggregator. dropped, if non-nil, is
// read at render time to report the bus's dropped-event counter.
func NewAggregator(dropped func() uint64) *Aggregator {
	return &Aggregator{
		droppedFn:  dropped,
		workers:    make(map[workerKey]*workerStats),
		tenants:    make(map[int]*TenantStats),
		hists:      make(map[string]*backendHists),
		pending:    make(map[pendKey]float64),
		tenantComp: make(map[int]*hist.Hist),
		tenantBusy: make(map[int]map[int]float64),
	}
}

// BeginRun implements Subscriber.
func (a *Aggregator) BeginRun(m RunMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.meta = m
	a.runs++
}

// BeginJob implements JobObserver: it records the tenant's name and
// counts the job against its tenant.
func (a *Aggregator) BeginJob(m JobMeta) {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tenant(m.Tenant)
	if m.TenantName != "" {
		t.Name = m.TenantName
	}
	t.Jobs++
}

// Close implements Subscriber. The aggregator keeps its totals after
// close so a debug endpoint can still be scraped post-run.
func (a *Aggregator) Close() error { return nil }

// OnEvent implements Subscriber.
func (a *Aggregator) OnEvent(e Event) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if e.Kind < kindCount {
		a.kinds[e.Kind]++
	}
	switch e.Kind {
	case ChunkGranted, ChunkPrefetched:
		// A grant is a run: its chunks are counted, and each waited the
		// run's latency.
		n := e.Chunks()
		w := a.worker(e)
		w.Chunks += uint64(n)
		w.Iterations += uint64(e.Size)
		w.WaitSec += float64(n) * e.Seconds
		a.observeLatency(e.Seconds, n)
		h := a.hist()
		h.queueWait.RecordN(e.Seconds, n)
		if len(a.pending) < maxPending {
			a.pending[pendKey{e.Job, e.Start}] = e.At
		}
		if e.Tenant != 0 {
			t := a.tenant(e.Tenant)
			t.Chunks += uint64(n)
			t.Iterations += uint64(e.Size)
		}
	case ChunkCompleted:
		// A completion is a run too: each of its chunks took an even
		// share of its seconds, and the run's grant-to-complete time.
		n := e.Chunks()
		per := e.Seconds / float64(n)
		w := a.worker(e)
		w.Completed += uint64(n)
		w.CompSec += e.Seconds
		h := a.hist()
		h.comp.RecordN(per, n)
		k := pendKey{e.Job, e.Start}
		if grantAt, ok := a.pending[k]; ok {
			delete(a.pending, k)
			g2c := e.At - grantAt
			if g2c < 0 {
				g2c = 0
			}
			h.g2c.RecordN(g2c, n)
			comm := g2c - e.Seconds
			if comm < 0 {
				comm = 0
			}
			h.comm.RecordN(comm, n)
		}
		if e.Tenant != 0 {
			a.tenant(e.Tenant).CompSec += e.Seconds
			tc := a.tenantComp[e.Tenant]
			if tc == nil {
				tc = &hist.Hist{}
				a.tenantComp[e.Tenant] = tc
			}
			tc.RecordN(per, n)
			busy := a.tenantBusy[e.Tenant]
			if busy == nil {
				busy = make(map[int]float64)
				a.tenantBusy[e.Tenant] = busy
			}
			busy[e.Worker] += e.Seconds
		}
	case LedgerFetch:
		a.hist().ledger.Record(e.Seconds)
	case WorkerJoined, ChunkRequested:
		a.worker(e)
	case JobAdmitted:
		a.jobWaitSum += e.Seconds
		a.jobWaitN++
		if e.Tenant != 0 {
			a.tenant(e.Tenant).QueueWaitSec += e.Seconds
		}
	case JobFinished:
		if e.Tenant != 0 {
			a.tenant(e.Tenant).Finished++
		}
	case JobFailed:
		if e.Tenant != 0 {
			a.tenant(e.Tenant).Failed++
		}
	case JobCancelled:
		if e.Tenant != 0 {
			a.tenant(e.Tenant).Cancelled++
		}
	case JobRequeued:
		if e.Tenant != 0 {
			a.tenant(e.Tenant).Requeues++
		}
	case JobQueueDepth:
		a.queueDepth = e.Size
	case WireFrameSent, WireFrameReceived:
		dir := 0
		if e.Kind == WireFrameReceived {
			dir = 1
		}
		ws := &a.wire[dir]
		ws.Frames++
		ws.Bytes += uint64(e.Size)
		ws.Items += uint64(e.Start)
		ws.CodecSec += e.Seconds
	}
}

// worker returns (creating if needed) the stats for the event's
// worker, refreshing its last-seen ACP. Callers hold a.mu.
func (a *Aggregator) worker(e Event) *workerStats {
	k := workerKey{Shard: e.Shard, Worker: e.Worker}
	w := a.workers[k]
	if w == nil {
		w = &workerStats{}
		a.workers[k] = w
	}
	if e.ACP > 0 {
		w.ACP = e.ACP
	}
	return w
}

// hist returns (creating if needed) the latency hists for the current
// run's backend. Callers hold a.mu.
func (a *Aggregator) hist() *backendHists {
	key := a.meta.Backend
	if key == "" {
		key = "unknown"
	}
	h := a.hists[key]
	if h == nil {
		h = &backendHists{}
		a.hists[key] = h
	}
	return h
}

// busyCV computes the coefficient of variation of a tenant's
// per-worker busy seconds. Callers hold a.mu.
func busyCV(busy map[int]float64) float64 {
	if len(busy) < 2 {
		return 0
	}
	var sum float64
	for _, b := range busy {
		sum += b
	}
	mean := sum / float64(len(busy))
	if mean <= 0 {
		return 0
	}
	var ss float64
	for _, b := range busy {
		d := b - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(busy))) / mean
}

// tenant returns (creating if needed) the stats for a tenant id.
// Callers hold a.mu.
func (a *Aggregator) tenant(id int) *TenantStats {
	t := a.tenants[id]
	if t == nil {
		t = &TenantStats{Name: fmt.Sprintf("tenant-%d", id)}
		a.tenants[id] = t
	}
	return t
}

// observeLatency records one scheduling latency n times, once per chunk
// of a run. Callers hold a.mu.
func (a *Aggregator) observeLatency(sec float64, n int) {
	i := sort.SearchFloat64s(latencyBuckets, sec)
	a.latCount[i] += uint64(n)
	a.latSum += float64(n) * sec
	a.latN += uint64(n)
}

// Snapshot is a point-in-time copy of the aggregator's state, used by
// tests and the expvar endpoint.
type Snapshot struct {
	Meta           RunMeta
	Runs           uint64
	Events         map[string]uint64
	ChunksGranted  uint64
	Iterations     uint64
	PrefetchHits   uint64
	PrefetchMisses uint64
	PrefetchRatio  float64
	Steals         uint64
	LocalSteals    uint64
	LocalRefills   uint64
	Timeouts       uint64
	Rejected       uint64
	Stages         uint64
	Dropped        uint64
	Workers        map[string]workerStats
	Tenants        map[string]TenantStats
	QueueDepth     int
	JobWaitSec     float64
	JobWaitCount   uint64
	JobsSubmitted  uint64
	JobsAdmitted   uint64
	JobsFinished   uint64
	JobsFailed     uint64
	JobsRequeued   uint64
	JobsCancelled  uint64
	WireSent       wireStats
	WireReceived   wireStats
	LatencySum     float64
	LatencyCount   uint64
	Stragglers     uint64
	LedgerFetches  uint64
	Hists          map[string]LatencyHists
}

// Snapshot returns a copy of the current totals.
func (a *Aggregator) Snapshot() Snapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	s := Snapshot{
		Meta:         a.meta,
		Runs:         a.runs,
		Events:       make(map[string]uint64, int(kindCount)),
		Steals:       a.kinds[ShardStealDone],
		LocalSteals:  a.kinds[ChunkStolen],
		LocalRefills: a.kinds[DequeRefilled],
		Timeouts:     a.kinds[WorkerTimedOut],
		Rejected:     a.kinds[WorkerRejected],
		Stages:       a.kinds[StageAdvanced],
		Workers:      make(map[string]workerStats, len(a.workers)),
		Tenants:      make(map[string]TenantStats, len(a.tenants)),

		QueueDepth:    a.queueDepth,
		JobWaitSec:    a.jobWaitSum,
		JobWaitCount:  a.jobWaitN,
		JobsSubmitted: a.kinds[JobSubmitted],
		JobsAdmitted:  a.kinds[JobAdmitted],
		JobsFinished:  a.kinds[JobFinished],
		JobsFailed:    a.kinds[JobFailed],
		JobsRequeued:  a.kinds[JobRequeued],
		JobsCancelled: a.kinds[JobCancelled],

		PrefetchHits:   a.kinds[ChunkPrefetched],
		PrefetchMisses: a.kinds[PrefetchMissed],
		WireSent:       a.wire[0],
		WireReceived:   a.wire[1],
		LatencySum:     a.latSum,
		LatencyCount:   a.latN,
		Stragglers:     a.kinds[StragglerDetected],
		LedgerFetches:  a.kinds[LedgerFetch],
		Hists:          make(map[string]LatencyHists, len(a.hists)),
	}
	for backend, h := range a.hists {
		s.Hists[backend] = h.snapshot()
	}
	for k := KindUnknown + 1; k < kindCount; k++ {
		if a.kinds[k] > 0 {
			s.Events[k.String()] = a.kinds[k]
		}
	}
	for k, w := range a.workers {
		s.Workers[fmt.Sprintf("%d/%d", k.Shard, k.Worker)] = *w
		s.ChunksGranted += w.Chunks
		s.Iterations += w.Iterations
	}
	for id, t := range a.tenants {
		row := *t
		if tc := a.tenantComp[id]; tc != nil {
			sum := tc.Snapshot().Summarize()
			row.CompP50, row.CompP95, row.CompP99 = sum.P50, sum.P95, sum.P99
		}
		row.BusyCV = busyCV(a.tenantBusy[id])
		s.Tenants[t.Name] = row
	}
	if att := s.PrefetchHits + s.PrefetchMisses; att > 0 {
		s.PrefetchRatio = float64(s.PrefetchHits) / float64(att)
	}
	if a.droppedFn != nil {
		s.Dropped = a.droppedFn()
	}
	return s
}

// WriteProm renders the totals in the Prometheus text exposition
// format (version 0.0.4).
func (a *Aggregator) WriteProm(w io.Writer) error {
	a.mu.Lock()
	// Copy everything we render, then release the lock before writing:
	// a stalled scrape must not hold up the bus drainer.
	meta := a.meta
	runs := a.runs
	kinds := a.kinds
	wire := a.wire
	lat := a.latCount
	latSum, latN := a.latSum, a.latN
	type workerRow struct {
		key   workerKey
		stats workerStats
	}
	rows := make([]workerRow, 0, len(a.workers))
	for k, ws := range a.workers {
		rows = append(rows, workerRow{k, *ws})
	}
	tenants := make([]TenantStats, 0, len(a.tenants))
	for id, t := range a.tenants {
		row := *t
		if tc := a.tenantComp[id]; tc != nil {
			sum := tc.Snapshot().Summarize()
			row.CompP50, row.CompP95, row.CompP99 = sum.P50, sum.P95, sum.P99
		}
		row.BusyCV = busyCV(a.tenantBusy[id])
		tenants = append(tenants, row)
	}
	hists := make(map[string]LatencyHists, len(a.hists))
	for backend, h := range a.hists {
		hists[backend] = h.snapshot()
	}
	stragglers := a.kinds[StragglerDetected]
	queueDepth := a.queueDepth
	jobWaitSum, jobWaitN := a.jobWaitSum, a.jobWaitN
	a.mu.Unlock()
	sort.Slice(tenants, func(i, j int) bool { return tenants[i].Name < tenants[j].Name })
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].key.Shard != rows[j].key.Shard {
			return rows[i].key.Shard < rows[j].key.Shard
		}
		return rows[i].key.Worker < rows[j].key.Worker
	})

	var err error
	pf := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	pf("# HELP loopsched_run_info Metadata of the most recent run (value is always 1).\n")
	pf("# TYPE loopsched_run_info gauge\n")
	pf("loopsched_run_info{scheme=%q,workload=%q,backend=%q} 1\n",
		meta.Scheme, meta.Workload, meta.Backend)
	pf("# HELP loopsched_runs_total Executor runs observed by this bus.\n")
	pf("# TYPE loopsched_runs_total counter\n")
	pf("loopsched_runs_total %d\n", runs)

	pf("# HELP loopsched_events_total Protocol events by kind.\n")
	pf("# TYPE loopsched_events_total counter\n")
	for k := KindUnknown + 1; k < kindCount; k++ {
		pf("loopsched_events_total{kind=%q} %d\n", k.String(), kinds[k])
	}

	pf("# HELP loopsched_chunks_granted_total Chunks granted per worker (direct and prefetched).\n")
	pf("# TYPE loopsched_chunks_granted_total counter\n")
	for _, r := range rows {
		pf("loopsched_chunks_granted_total{shard=\"%d\",worker=\"%d\"} %d\n",
			r.key.Shard, r.key.Worker, r.stats.Chunks)
	}
	pf("# HELP loopsched_iterations_granted_total Loop iterations granted per worker.\n")
	pf("# TYPE loopsched_iterations_granted_total counter\n")
	for _, r := range rows {
		pf("loopsched_iterations_granted_total{shard=\"%d\",worker=\"%d\"} %d\n",
			r.key.Shard, r.key.Worker, r.stats.Iterations)
	}
	pf("# HELP loopsched_worker_comp_seconds_total Computation seconds per worker.\n")
	pf("# TYPE loopsched_worker_comp_seconds_total counter\n")
	for _, r := range rows {
		pf("loopsched_worker_comp_seconds_total{shard=\"%d\",worker=\"%d\"} %g\n",
			r.key.Shard, r.key.Worker, r.stats.CompSec)
	}
	pf("# HELP loopsched_worker_wait_seconds_total Scheduling-latency seconds per worker.\n")
	pf("# TYPE loopsched_worker_wait_seconds_total counter\n")
	for _, r := range rows {
		pf("loopsched_worker_wait_seconds_total{shard=\"%d\",worker=\"%d\"} %g\n",
			r.key.Shard, r.key.Worker, r.stats.WaitSec)
	}
	pf("# HELP loopsched_worker_acp Last reported available computing power, percent.\n")
	pf("# TYPE loopsched_worker_acp gauge\n")
	for _, r := range rows {
		pf("loopsched_worker_acp{shard=\"%d\",worker=\"%d\"} %d\n",
			r.key.Shard, r.key.Worker, r.stats.ACP)
	}

	hits, misses := kinds[ChunkPrefetched], kinds[PrefetchMissed]
	pf("# HELP loopsched_prefetch_hits_total Prefetch requests satisfied with a chunk.\n")
	pf("# TYPE loopsched_prefetch_hits_total counter\n")
	pf("loopsched_prefetch_hits_total %d\n", hits)
	pf("# HELP loopsched_prefetch_misses_total Prefetch requests the master could not satisfy.\n")
	pf("# TYPE loopsched_prefetch_misses_total counter\n")
	pf("loopsched_prefetch_misses_total %d\n", misses)
	pf("# HELP loopsched_prefetch_hit_ratio Fraction of prefetch requests satisfied.\n")
	pf("# TYPE loopsched_prefetch_hit_ratio gauge\n")
	ratio := 0.0
	if att := hits + misses; att > 0 {
		ratio = float64(hits) / float64(att)
	}
	pf("loopsched_prefetch_hit_ratio %g\n", ratio)

	pf("# HELP loopsched_scheduling_latency_seconds Request-to-grant latency at the (sub)master.\n")
	pf("# TYPE loopsched_scheduling_latency_seconds histogram\n")
	cum := uint64(0)
	for i, ub := range latencyBuckets {
		cum += lat[i]
		pf("loopsched_scheduling_latency_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	cum += lat[len(latencyBuckets)]
	pf("loopsched_scheduling_latency_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	pf("loopsched_scheduling_latency_seconds_sum %g\n", latSum)
	pf("loopsched_scheduling_latency_seconds_count %d\n", latN)

	backends := make([]string, 0, len(hists))
	for b := range hists {
		backends = append(backends, b)
	}
	sort.Strings(backends)
	promHist := func(name, help string, pick func(LatencyHists) hist.Snapshot) {
		pf("# HELP %s %s\n", name, help)
		pf("# TYPE %s histogram\n", name)
		for _, b := range backends {
			s := pick(hists[b])
			cum := uint64(0)
			for i := 0; i < hist.NumBuckets-1; i++ {
				cum += s.Counts[i]
				pf("%s_bucket{backend=%q,le=\"%g\"} %d\n", name, b, hist.UpperBound(i), cum)
			}
			cum += s.Counts[hist.NumBuckets-1]
			pf("%s_bucket{backend=%q,le=\"+Inf\"} %d\n", name, b, cum)
			pf("%s_sum{backend=%q} %g\n", name, b, s.SumSeconds)
			pf("%s_count{backend=%q} %d\n", name, b, s.Count)
		}
	}
	promHist("loopsched_chunk_queue_wait_seconds",
		"Request-to-grant scheduling latency per chunk, by backend.",
		func(h LatencyHists) hist.Snapshot { return h.QueueWait })
	promHist("loopsched_chunk_comp_seconds",
		"Chunk computation latency, by backend.",
		func(h LatencyHists) hist.Snapshot { return h.Comp })
	promHist("loopsched_chunk_comm_seconds",
		"Inferred per-chunk communication slack (grant-to-complete minus compute), by backend.",
		func(h LatencyHists) hist.Snapshot { return h.Comm })
	promHist("loopsched_chunk_grant_to_complete_seconds",
		"Grant-to-complete latency per chunk, by backend.",
		func(h LatencyHists) hist.Snapshot { return h.GrantToComplete })
	promHist("loopsched_ledger_fetch_seconds",
		"Scheduling-ledger claim round trip (one fetch-and-add), by backend.",
		func(h LatencyHists) hist.Snapshot { return h.LedgerFetch })
	pf("# HELP loopsched_ledger_fetchadds_total Scheduling-ledger fetch-and-add claims, by backend.\n")
	pf("# TYPE loopsched_ledger_fetchadds_total counter\n")
	for _, b := range backends {
		pf("loopsched_ledger_fetchadds_total{backend=%q} %d\n", b, hists[b].LedgerFetch.Count)
	}

	dirs := [2]string{"sent", "received"}
	pf("# HELP loopsched_wire_frames_total Binary-protocol frames by direction.\n")
	pf("# TYPE loopsched_wire_frames_total counter\n")
	for i, d := range dirs {
		pf("loopsched_wire_frames_total{dir=%q} %d\n", d, wire[i].Frames)
	}
	pf("# HELP loopsched_wire_bytes_total Binary-protocol bytes on the wire by direction.\n")
	pf("# TYPE loopsched_wire_bytes_total counter\n")
	for i, d := range dirs {
		pf("loopsched_wire_bytes_total{dir=%q} %d\n", d, wire[i].Bytes)
	}
	pf("# HELP loopsched_wire_batch_items_total Batch items (completed iterations / grants) carried in frames.\n")
	pf("# TYPE loopsched_wire_batch_items_total counter\n")
	for i, d := range dirs {
		pf("loopsched_wire_batch_items_total{dir=%q} %d\n", d, wire[i].Items)
	}
	pf("# HELP loopsched_wire_codec_seconds_total Frame encode (sent) and decode (received) seconds.\n")
	pf("# TYPE loopsched_wire_codec_seconds_total counter\n")
	for i, d := range dirs {
		pf("loopsched_wire_codec_seconds_total{dir=%q} %g\n", d, wire[i].CodecSec)
	}

	pf("# HELP loopsched_job_queue_depth Jobs waiting for admission (queued + fail-queue) at the scheduler.\n")
	pf("# TYPE loopsched_job_queue_depth gauge\n")
	pf("loopsched_job_queue_depth %d\n", queueDepth)
	pf("# HELP loopsched_job_wait_seconds Admission-queue wait from submit to start, per admitted job.\n")
	pf("# TYPE loopsched_job_wait_seconds summary\n")
	pf("loopsched_job_wait_seconds_sum %g\n", jobWaitSum)
	pf("loopsched_job_wait_seconds_count %d\n", jobWaitN)
	pf("# HELP loopsched_tenant_jobs_total Jobs submitted per scheduler tenant.\n")
	pf("# TYPE loopsched_tenant_jobs_total counter\n")
	for _, t := range tenants {
		pf("loopsched_tenant_jobs_total{tenant=%q} %d\n", t.Name, t.Jobs)
	}
	pf("# HELP loopsched_tenant_chunks_total Chunks granted per scheduler tenant.\n")
	pf("# TYPE loopsched_tenant_chunks_total counter\n")
	for _, t := range tenants {
		pf("loopsched_tenant_chunks_total{tenant=%q} %d\n", t.Name, t.Chunks)
	}
	pf("# HELP loopsched_tenant_iterations_total Loop iterations granted per scheduler tenant.\n")
	pf("# TYPE loopsched_tenant_iterations_total counter\n")
	for _, t := range tenants {
		pf("loopsched_tenant_iterations_total{tenant=%q} %d\n", t.Name, t.Iterations)
	}
	pf("# HELP loopsched_tenant_comp_seconds_total Computation seconds per scheduler tenant.\n")
	pf("# TYPE loopsched_tenant_comp_seconds_total counter\n")
	for _, t := range tenants {
		pf("loopsched_tenant_comp_seconds_total{tenant=%q} %g\n", t.Name, t.CompSec)
	}
	pf("# HELP loopsched_tenant_chunk_latency_seconds Chunk-compute latency percentiles per scheduler tenant.\n")
	pf("# TYPE loopsched_tenant_chunk_latency_seconds summary\n")
	for _, t := range tenants {
		pf("loopsched_tenant_chunk_latency_seconds{tenant=%q,quantile=\"0.5\"} %g\n", t.Name, t.CompP50)
		pf("loopsched_tenant_chunk_latency_seconds{tenant=%q,quantile=\"0.95\"} %g\n", t.Name, t.CompP95)
		pf("loopsched_tenant_chunk_latency_seconds{tenant=%q,quantile=\"0.99\"} %g\n", t.Name, t.CompP99)
	}
	pf("# HELP loopsched_tenant_busy_cv Coefficient of variation of per-worker busy time per tenant.\n")
	pf("# TYPE loopsched_tenant_busy_cv gauge\n")
	for _, t := range tenants {
		pf("loopsched_tenant_busy_cv{tenant=%q} %g\n", t.Name, t.BusyCV)
	}

	pf("# HELP loopsched_shard_steals_total Completed shard steals at the hier root.\n")
	pf("# TYPE loopsched_shard_steals_total counter\n")
	pf("loopsched_shard_steals_total %d\n", kinds[ShardStealDone])
	pf("# HELP loopsched_local_steals_total Chunks stolen between workers by the local work-stealing engine.\n")
	pf("# TYPE loopsched_local_steals_total counter\n")
	pf("loopsched_local_steals_total %d\n", kinds[ChunkStolen])
	pf("# HELP loopsched_local_refills_total Deque refill trips to the scheme policy by the local work-stealing engine.\n")
	pf("# TYPE loopsched_local_refills_total counter\n")
	pf("loopsched_local_refills_total %d\n", kinds[DequeRefilled])
	pf("# HELP loopsched_worker_timeouts_total Workers declared failed by the timeout watchdog.\n")
	pf("# TYPE loopsched_worker_timeouts_total counter\n")
	pf("loopsched_worker_timeouts_total %d\n", kinds[WorkerTimedOut])
	pf("# HELP loopsched_worker_rejected_total Requests rejected from already-failed workers.\n")
	pf("# TYPE loopsched_worker_rejected_total counter\n")
	pf("loopsched_worker_rejected_total %d\n", kinds[WorkerRejected])
	pf("# HELP loopsched_stage_advances_total Replans and hier super-chunk boundaries.\n")
	pf("# TYPE loopsched_stage_advances_total counter\n")
	pf("loopsched_stage_advances_total %d\n", kinds[StageAdvanced])
	pf("# HELP loopsched_stragglers_total Straggler detections (worker EWMA latency over k times the fleet median).\n")
	pf("# TYPE loopsched_stragglers_total counter\n")
	pf("loopsched_stragglers_total %d\n", stragglers)

	dropped := uint64(0)
	if a.droppedFn != nil {
		dropped = a.droppedFn()
	}
	pf("# HELP loopsched_dropped_events_total Events discarded because the telemetry ring was full.\n")
	pf("# TYPE loopsched_dropped_events_total counter\n")
	pf("loopsched_dropped_events_total %d\n", dropped)
	return err
}

// ServeHTTP serves the Prometheus text format, so an Aggregator can be
// mounted directly on a mux at /metrics.
func (a *Aggregator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := a.WriteProm(w); err != nil {
		// The connection is gone; nothing useful to do.
		return
	}
}

// expvarAgg is the aggregator currently exported under the "loopsched"
// expvar. expvar.Publish panics on duplicate names, so the variable is
// registered once per process and indirects through this pointer.
var expvarAgg atomic.Pointer[Aggregator]

var expvarOnce sync.Once

// publishExpvar exposes the aggregator's Snapshot as the "loopsched"
// expvar (JSON at /debug/vars). The most recently published aggregator
// wins; passing nil detaches.
func publishExpvar(a *Aggregator) {
	expvarOnce.Do(func() {
		expvar.Publish("loopsched", expvar.Func(func() any {
			agg := expvarAgg.Load()
			if agg == nil {
				return nil
			}
			return agg.Snapshot()
		}))
	})
	expvarAgg.Store(a)
}
