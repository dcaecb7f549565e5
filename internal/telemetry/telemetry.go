// Package telemetry is a low-overhead event bus for live observation of
// the chunk protocol. Every backend (exec RPC master/worker, hier
// root+submasters, mp TCP, sim, local) publishes protocol-level events
// — chunk requests, grants, prefetches, completions, worker joins and
// timeouts, shard steals, stage advances — and subscribers (metric
// aggregator, Perfetto exporter, trace recorder) consume them off the
// hot path.
//
// Design constraints, in order:
//
//  1. Publish must never block the chunk hot path. Events go into a
//     fixed-size ring buffer; when it is full the event is counted in
//     Dropped and discarded, the publisher never waits.
//  2. Publish must not allocate. Event is a flat value type (no
//     pointers, no strings) copied into a pre-allocated ring. Run-wide
//     strings (scheme, workload) travel once per run in RunMeta.
//  3. Subscribers run on a single drainer goroutine, so they need no
//     internal locking against each other and observe events in
//     publish order.
//
// A nil *Bus is valid and inert: all methods are nil-safe no-ops, so
// call sites publish unconditionally without guarding on "telemetry
// enabled".
package telemetry

import (
	"sync"
	"time"
)

// Kind enumerates the protocol events backends publish.
type Kind uint8

const (
	// KindUnknown is the zero Kind; the bus never publishes it.
	KindUnknown Kind = iota

	// RunStarted and RunFinished bracket one executor run.
	RunStarted
	RunFinished

	// ChunkRequested marks a worker request arriving at a master or
	// submaster. Worker/Shard/ACP identify the requester.
	ChunkRequested

	// ChunkGranted marks a chunk handed to a worker in direct reply
	// to a request. Start/Size give the iteration range, Seconds the
	// scheduling latency from request arrival to grant.
	ChunkGranted

	// ChunkPrefetched is a grant satisfying a pipelined prefetch
	// request (the worker asked for work ahead of need). Counted as a
	// grant and as a prefetch hit.
	ChunkPrefetched

	// PrefetchMissed marks a prefetch request the master could not
	// satisfy (loop exhausted or nothing grantable): the pipeline
	// bubble the prefetch protocol tries to avoid.
	PrefetchMissed

	// ChunkCompleted marks a worker finishing the computation of a
	// chunk. Seconds is the computation time; At is the completion
	// instant, so the chunk occupied [At-Seconds, At].
	ChunkCompleted

	// WorkerJoined marks the first contact from a worker.
	WorkerJoined

	// WorkerTimedOut marks a worker declared failed by the timeout
	// watchdog; its outstanding iterations were requeued.
	WorkerTimedOut

	// WorkerRejected marks a request from a worker that was already
	// declared failed (a "resurrected" worker told to stop).
	WorkerRejected

	// ShardStealStarted marks a shard (Worker = thief shard id)
	// exhausting its own region and asking the root for a steal.
	ShardStealStarted

	// ShardStealDone marks a successful steal: Worker is the thief
	// shard, Shard the victim, Start/Size the stolen range.
	ShardStealDone

	// StageAdvanced marks a scheduling-stage boundary: an adaptive
	// replan on fresh ACP figures, or a hier submaster moving to its
	// next super-chunk.
	StageAdvanced

	// WireFrameSent marks one binary-protocol frame written to a
	// connection. Size is the frame's bytes on the wire (header
	// included), Start the batch item count it carried (the iterations
	// a request's completion records cover — a run counts its length —
	// or a reply's grants), Seconds the encode time. Worker/Shard label
	// the connection's owner.
	WireFrameSent

	// WireFrameReceived marks one binary-protocol frame decoded from
	// a connection, with the same field semantics as WireFrameSent
	// (Seconds is the decode time).
	WireFrameReceived

	// ChunkStolen marks a chunk moved between workers inside the
	// work-stealing local engine: Worker is the thief, Shard (reused;
	// these runs are flat) the victim worker's id, Start/Size the
	// chunk.
	ChunkStolen

	// DequeRefilled marks one trip to the scheme policy by the
	// work-stealing local engine: Worker refilled its deque with Size
	// chunks starting at iteration Start.
	DequeRefilled

	// JobSubmitted marks a job entering a scheduler's admission queue.
	// Job/Tenant identify it; Size is the job's iteration count. The
	// job's strings (tenant name, scheme, workload) travel once in
	// JobMeta via Bus.BeginJob.
	JobSubmitted

	// JobAdmitted marks a queued job starting on the shared fleet.
	// Seconds is the admission-queue wait (submit to start), Size the
	// job's iteration count.
	JobAdmitted

	// JobFinished marks a job completing every granted iteration.
	// Seconds is the job's runtime, Size its executed iterations.
	JobFinished

	// JobFailed marks a job failing terminally (retry budget spent,
	// deadline exceeded, or an unschedulable spec).
	JobFailed

	// JobRequeued marks a failed attempt pushed back onto the
	// scheduler's fail-queue for a later retry. Size is the attempt
	// number just finished.
	JobRequeued

	// JobCancelled marks a job cancelled by its owner or by the
	// scheduler closing.
	JobCancelled

	// JobQueueDepth is a gauge sample of the scheduler's admission
	// queue: Size is the number of jobs waiting (queued + fail-queue).
	JobQueueDepth

	// StragglerDetected marks the flight recorder observing a worker
	// whose EWMA chunk latency exceeds k times the fleet median:
	// Worker is the straggler, Seconds its EWMA latency, At the
	// detection instant. Published by the recorder itself (from the
	// drainer goroutine), never by a backend.
	StragglerDetected

	// LedgerFetch marks one fetch-and-add refill of a service job on
	// the scheduling ledger (exec.JobState): Worker is the claimer,
	// Start the number of steps claimed, Seconds the claim's latency.
	// Published by the claiming side, so the aggregator can count
	// claims and track claim latency per backend.
	LedgerFetch

	kindCount // number of kinds; keep last
)

// kindNames indexes Kind. Names are stable: they appear in Prometheus
// label values and in the Perfetto export.
var kindNames = [kindCount]string{
	KindUnknown:       "unknown",
	RunStarted:        "run_started",
	RunFinished:       "run_finished",
	ChunkRequested:    "chunk_requested",
	ChunkGranted:      "chunk_granted",
	ChunkPrefetched:   "chunk_prefetched",
	PrefetchMissed:    "prefetch_missed",
	ChunkCompleted:    "chunk_completed",
	WorkerJoined:      "worker_joined",
	WorkerTimedOut:    "worker_timed_out",
	WorkerRejected:    "worker_rejected",
	ShardStealStarted: "shard_steal_started",
	ShardStealDone:    "shard_steal_done",
	StageAdvanced:     "stage_advanced",
	WireFrameSent:     "wire_frame_sent",
	WireFrameReceived: "wire_frame_received",
	ChunkStolen:       "chunk_stolen",
	DequeRefilled:     "deque_refilled",
	JobSubmitted:      "job_submitted",
	JobAdmitted:       "job_admitted",
	JobFinished:       "job_finished",
	JobFailed:         "job_failed",
	JobRequeued:       "job_requeued",
	JobCancelled:      "job_cancelled",
	JobQueueDepth:     "job_queue_depth",
	StragglerDetected: "straggler_detected",
	LedgerFetch:       "ledger_fetch",
}

// String returns the stable snake_case name of the kind.
func (k Kind) String() string {
	if k >= kindCount {
		return "invalid"
	}
	return kindNames[k]
}

// Event is one protocol event. It is a flat value type — no pointers,
// no strings — so publishing copies it into the ring without touching
// the heap. Fields beyond Kind are populated per kind (see the Kind
// docs); unused fields are zero.
type Event struct {
	Kind   Kind
	Worker int // worker id (global across shards); thief shard for steals
	Shard  int // shard index; 0 for flat runs, victim shard for ShardStealDone
	Job    int // scheduler job id; 0 for single-run executions
	Tenant int // scheduler tenant id; 0 for single-run executions
	Start  int // first iteration of the chunk / stolen range
	Size   int // iterations in the chunk / stolen range
	ACP    int // available computing power the requester reported, percent

	// Span is the chunk's trace/span id (see SpanID), carried by
	// ChunkGranted, ChunkPrefetched and ChunkCompleted so the
	// Perfetto export can draw one flow per chunk across processes.
	// Zero means untraced.
	Span uint64

	// At is the event instant in seconds on the backend's clock:
	// wall-monotonic seconds since the bus epoch for real backends,
	// virtual simulated seconds for the sim backend.
	At float64

	// Seconds is the kind-specific duration payload: computation time
	// for ChunkCompleted, scheduling latency for ChunkGranted and
	// ChunkPrefetched.
	Seconds float64
}

// SpanID derives a chunk's deterministic trace/span id from its job id
// and first iteration. A job's chunks partition its iteration space,
// so (job, start) identifies a chunk uniquely and both the granting
// master and the completing worker can compute the same id without
// threading state between them. The id is never zero (zero means "no
// span"); a requeued chunk re-granted after a worker failure reuses
// the id — it is the same chunk, and the trace shows the retry as a
// second slice on the same flow.
//
//lint:loopsched-hotpath
func SpanID(job, start int) uint64 {
	return uint64(uint32(job))<<40 | (uint64(uint32(start)) + 1)
}

// RunMeta describes one executor run. It is delivered to subscribers
// via BeginRun before any of the run's events, carrying the run-wide
// strings that Event deliberately omits.
type RunMeta struct {
	Scheme     string
	Workload   string
	Backend    string
	Workers    int
	Iterations int
}

// JobMeta describes one scheduler job, carrying the per-job strings
// that Event deliberately omits. It is delivered to subscribers that
// implement JobObserver via Bus.BeginJob, before any of the job's
// events.
type JobMeta struct {
	Job        int
	Tenant     int
	TenantName string
	Scheme     string
	Workload   string
	Iterations int
	Priority   int
	Weight     float64
}

// JobObserver is optionally implemented by subscribers that want
// per-job announcements from a scheduler. It is a separate interface
// (rather than a fourth Subscriber method) so existing subscribers
// keep compiling; Bus.BeginJob type-asserts at delivery time.
type JobObserver interface {
	// BeginJob announces a job submission. Like BeginRun it is called
	// from the publisher's goroutine, never concurrently with OnEvent.
	BeginJob(m JobMeta)
}

// Subscriber consumes events from the bus. All three methods are
// called from the bus's single drainer goroutine (BeginRun from the
// publisher's goroutine, but never concurrently with OnEvent — the bus
// flushes first), so implementations need no locking against the bus.
type Subscriber interface {
	// BeginRun announces a new run. Events published after BeginRun
	// belong to that run.
	BeginRun(m RunMeta)
	// OnEvent delivers one event, in publish order.
	OnEvent(e Event)
	// Close flushes and releases the subscriber. Called once by
	// Bus.Close.
	Close() error
}

// DefaultBufferSize is the ring capacity used when NewBus is given a
// non-positive size. At 72 bytes per Event this is ~1.2 MiB.
const DefaultBufferSize = 1 << 14

// Bus is the event ring. Create with NewBus, stop with Close.
type Bus struct {
	epoch time.Time

	mu         sync.Mutex
	cond       *sync.Cond
	ring       []Event
	head       int // index of oldest queued event
	queued     int // events waiting in the ring
	dropped    uint64
	delivering bool // drainer is between Lock windows with a batch in flight
	closed     bool
	subs       []Subscriber

	wg sync.WaitGroup
}

// NewBus creates a bus with the given ring capacity (DefaultBufferSize
// if size <= 0) and starts its drainer goroutine. The caller must
// Close the bus to stop the drainer and close subscribers.
func NewBus(size int) *Bus {
	if size <= 0 {
		size = DefaultBufferSize
	}
	b := &Bus{
		epoch: time.Now(),
		ring:  make([]Event, size),
	}
	b.cond = sync.NewCond(&b.mu)
	b.wg.Add(1)
	go b.drain()
	return b
}

// Now returns seconds since the bus epoch on the wall-monotonic clock,
// the At timestamp real backends stamp events with. Nil-safe: a nil
// bus reports 0, and the corresponding Publish discards the event, so
// the pair stays coherent.
//
//lint:loopsched-hotpath
func (b *Bus) Now() float64 {
	if b == nil {
		return 0
	}
	return time.Since(b.epoch).Seconds()
}

// Publish enqueues an event. It never blocks and never allocates: if
// the ring is full the event is dropped and counted in Dropped. Safe
// for concurrent use; nil-safe no-op.
//
//lint:loopsched-hotpath
func (b *Bus) Publish(e Event) {
	if b == nil {
		return
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	if b.queued == len(b.ring) {
		b.dropped++
		b.mu.Unlock()
		return
	}
	b.ring[(b.head+b.queued)%len(b.ring)] = e
	b.queued++
	b.mu.Unlock()
	b.cond.Broadcast()
}

// Dropped reports how many events were discarded because the ring was
// full. Nil-safe.
func (b *Bus) Dropped() uint64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Subscribe attaches a subscriber. Events published after Subscribe
// returns are guaranteed to reach it; events already queued may too.
func (b *Bus) Subscribe(s Subscriber) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Copy-on-write so the drainer can hold a snapshot without the lock.
	subs := make([]Subscriber, 0, len(b.subs)+1)
	subs = append(subs, b.subs...)
	b.subs = append(subs, s)
}

// Unsubscribe detaches a subscriber previously passed to Subscribe.
// It does not Close the subscriber. After Unsubscribe returns the
// subscriber may still receive the batch currently in flight; call
// Flush first for a clean cut.
func (b *Bus) Unsubscribe(s Subscriber) {
	if b == nil || s == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	subs := make([]Subscriber, 0, len(b.subs))
	for _, have := range b.subs {
		if have != s {
			subs = append(subs, have)
		}
	}
	b.subs = subs
}

// Flush blocks until every event published before the call has been
// delivered to the subscribers. Nil-safe.
func (b *Bus) Flush() {
	if b == nil {
		return
	}
	b.mu.Lock()
	for (b.queued > 0 || b.delivering) && !b.closed {
		b.cond.Wait()
	}
	b.mu.Unlock()
}

// BeginRun flushes the queue and then synchronously announces the run
// to every subscriber, so the meta is observed before any of the run's
// events. Nil-safe.
func (b *Bus) BeginRun(m RunMeta) {
	if b == nil {
		return
	}
	b.Flush()
	b.mu.Lock()
	subs := b.subs
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	for _, s := range subs {
		s.BeginRun(m)
	}
}

// BeginJob flushes the queue and then synchronously announces a
// scheduler job to every subscriber implementing JobObserver, so the
// meta is observed before any of the job's events. Nil-safe.
func (b *Bus) BeginJob(m JobMeta) {
	if b == nil {
		return
	}
	b.Flush()
	b.mu.Lock()
	subs := b.subs
	closed := b.closed
	b.mu.Unlock()
	if closed {
		return
	}
	for _, s := range subs {
		if jo, ok := s.(JobObserver); ok {
			jo.BeginJob(m)
		}
	}
}

// Close drains queued events, stops the drainer goroutine (joining it,
// per the gojoin contract), and closes every subscriber. Publishing
// after Close is a counted-free no-op. Close is idempotent; nil-safe.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		b.wg.Wait()
		return nil
	}
	b.closed = true
	b.mu.Unlock()
	b.cond.Broadcast()
	b.wg.Wait()

	b.mu.Lock()
	subs := b.subs
	b.subs = nil
	b.mu.Unlock()
	var first error
	for _, s := range subs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drainBatch bounds how many events the drainer copies out per lock
// window. Bounding keeps Publish latency flat while the drainer is
// busy delivering.
const drainBatch = 256

// drain is the single delivery goroutine: it copies batches out of the
// ring under the lock and runs subscribers outside it, so a slow
// subscriber delays delivery, never publishers. On Close it first
// drains whatever is queued, then exits.
func (b *Bus) drain() {
	defer b.wg.Done()
	var batch [drainBatch]Event
	for {
		b.mu.Lock()
		for b.queued == 0 && !b.closed {
			b.cond.Wait()
		}
		if b.queued == 0 && b.closed {
			b.mu.Unlock()
			return
		}
		n := 0
		for n < len(batch) && b.queued > 0 {
			batch[n] = b.ring[b.head]
			b.head = (b.head + 1) % len(b.ring)
			b.queued--
			n++
		}
		b.delivering = true
		subs := b.subs
		b.mu.Unlock()

		for _, s := range subs {
			for i := 0; i < n; i++ {
				s.OnEvent(batch[i])
			}
		}

		b.mu.Lock()
		b.delivering = false
		b.mu.Unlock()
		b.cond.Broadcast()
	}
}
