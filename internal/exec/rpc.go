package exec

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/dispense"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/wire"
)

// The RPC runtime mirrors the paper's mpich implementation: slaves
// call the master for work, piggy-backing the results of the previous
// chunk on each request (§5's communication optimisation), and the
// master replies with an iteration interval or a stop flag.
//
// This file is the master and the Worker type. The slave side is one
// loop (runWindow in wire.go) over one Link (link.go), whatever the
// codec: with Worker.Pipeline it refills one measured master round trip
// before its work runs out, asking for what that round trip needs. A
// reply is one share-bounded batch (sched.BatchLimit) of at most what
// the worker asked: the share and the ask are its only bounds. DESIGN.md
// §9 states the loop's rules.
//
// Two codecs carry the dialogue between processes (transport.go):
// net/rpc + gob, one chunk per round trip, and the binary framing of
// internal/wire, which batches N completion records and up to `credits`
// grants into single frames. Serve sniffs the first byte of each
// connection, so one listener carries both; ServeConn serves the binary
// codec over any byte stream, which is how internal/mp's worlds reach the
// same master. Within one process no codec is needed: Master.Link's
// memory link calls the request handler in the worker's goroutine.
//
// The master's account — the lock-free result ledger, what each worker
// holds, the requeue and the gather's release line — is its
// dispense.Book; the timing and the rest of per-worker protocol state
// live in per-worker slots with their own locks. Every grant is the
// book's Grant under Master.mu (grants), whatever the scheme — a reply
// is a batch of runs, so the lock is taken once per batch, not once per
// chunk — and every grant is a reply to a request:
// what a worker holds is in the book, so FailWorker can requeue all of
// it. See docs/PROTOCOL.md for the dialogue.

// ChunkResult carries the output of one computed iteration back to
// the master — or, with Count > 0, the completion of Count consecutive
// iterations from Index whose kernel returned no bytes: a run, which
// carries no Data and travels as one record on every link.
type ChunkResult struct {
	Index int
	Count int
	Data  []byte
}

// Iterations is how many iterations the result completes.
func (r ChunkResult) Iterations() int { return max(r.Count, 1) }

// ChunkArgs is a slave's work request.
type ChunkArgs struct {
	Worker int
	// ACP is the slave's available computing power (0 for simple
	// schemes / unknown).
	ACP int
	// CompSeconds is the computation time measured since the last
	// request (0 on the first) — the master derives the paper's per-PE
	// T_comp/T_comm breakdown from it.
	CompSeconds float64
	// IdleSeconds is how long the worker's compute loop sat stalled
	// waiting for the previous request to be answered. Serial workers
	// leave it 0 (their whole round-trip is communication); pipelined
	// workers report the prefetch-miss residue so the master can tell
	// hidden communication from a genuine stall.
	IdleSeconds float64
	// Results are the outputs computed since the last request.
	Results []ChunkResult
	// Prefetch marks a request sent ahead of need: the worker still
	// holds work — it may be in the middle of a chunk, in which case
	// CompSeconds and Results cover that chunk so far — and wants more
	// in advance. The master answers immediately — with more
	// assignments, or with an empty reply (no grant, Stop false) when
	// nothing can be issued right now — and must not treat the worker's
	// unfinished chunks as abandoned.
	Prefetch bool
	// yield marks a request from a worker in the master's own process
	// (a memory link): held, it yields its goroutine for a while before
	// it sleeps — the worker has no other use for its CPU, and waking a
	// sleeping thread costs more than the tail of a short loop.
	yield bool
}

// ChunkReply is the master's answer on the net/rpc transport. An
// empty reply (zero Assign, Stop false) to a Prefetch request means
// "nothing right now": the worker finishes what it holds and asks again
// without the flag.
type ChunkReply struct {
	Assign sched.Assignment
	Stop   bool
}

// slot is the per-worker protocol state. Each slot has its own lock,
// so steady-state requests from different workers touch no shared
// mutex; Master.mu is only ever acquired before a slot lock, never
// after releasing one inside the same critical section.
type slot struct {
	mu        sync.Mutex // also serialises the worker's holding and learning in the book
	times     metrics.Times
	comp      float64 // reported compute seconds of chunks not yet retired
	lastSeen  time.Time
	lastReply time.Time
	joined    bool
	failed    bool // mirror of Master.failed, which account reads without Master.mu
}

// Source is where a Master's ranges come from, one staged whenever the
// last is drained (DESIGN.md §9): a flat master's is the whole loop,
// once; a shard master's is its root (hier.Submaster). Take is called
// under the master's lock, Fetch without it, the rest from anywhere.
type Source interface {
	// Take hands over a range the source holds, without waiting; ok is
	// false when it holds none right now.
	Take() (start, size int, ok bool)
	// Fetch waits until the source holds a range or is exhausted. Only a
	// synchronous request of a quiescent master — gathered, every staged
	// iteration delivered — calls it, one at a time; acp is the workers'
	// summed ACP.
	Fetch(acp int) error
	// Exhausted reports that the source holds no range and never will.
	Exhausted() bool
	// Forward takes the results a request delivered, as they came.
	Forward(results []ChunkResult)
}

// whole is a flat master's source: the loop, once.
type whole struct {
	n     int
	taken bool
}

func (w *whole) Take() (int, int, bool) {
	if w.taken { // every caller holds Master.mu
		return 0, 0, false
	}
	w.taken = true
	return 0, w.n, true
}

func (*whole) Fetch(int) error       { return nil }
func (w *whole) Exhausted() bool     { return w.taken }
func (*whole) Forward([]ChunkResult) {}

// Master is the RPC scheduling service. Create with New, expose
// with Serve, then Wait for completion.
type Master struct {
	scheme     sched.Scheme
	iterations int
	workers    int
	bus        *telemetry.Bus // nil: publish nothing
	shard      int            // telemetry labels: the shard, and members[w],
	members    []int          // worker w's run-global id (nil: w itself)
	job        int            // and the scheduler job and tenant (zero for
	tenant     int            // a single run)

	// b is the master's book, under mu and the slot locks but for its
	// lock-free result ledger: iteration i's bit flips exactly once. The
	// winner stores results[i] (a shard master forwards them instead), and
	// its request bumps received once its timing is booked too, so whoever
	// observes every staged iteration received observes every stored
	// result and delivering request's accounting. results is made by the
	// first deposit that carries data (resultsOnce), or by Wait: a loop
	// whose kernel returns no bytes never pays for a slot per iteration
	// while it runs.
	b           *dispense.Book
	received    atomic.Int64
	results     [][]byte
	resultsOnce sync.Once

	// src hands out the ranges staged one after another in the book;
	// staged counts their iterations. fetching marks the one request
	// waiting on src.Fetch (under mu).
	src      Source
	staged   atomic.Int64
	fetching bool

	// Latency histograms for the report: request-to-grant on the
	// master's clock (recorded only when a bus supplies that clock)
	// and worker-reported per-chunk compute time.
	waitHist *hist.Sharded
	compHist *hist.Sharded

	slots []slot

	mu         sync.Mutex
	ready      *sync.Cond
	stoppedSet []bool
	failed     map[int]bool
	parked     []bool        // workers idling inside a held NextChunk call
	parkNote   chan struct{} // one token buffered whenever a worker parks: what a test waits on
	started    time.Time
	finished   time.Time
	done       chan struct{}
	err        error
	cancelErr  error

	clock func() time.Time // times requests and replies; scripted in tests, nil means time.Now

	connMu  sync.Mutex
	conns   []net.Conn     // accepted by Serve, closed by Shutdown
	serving sync.WaitGroup // Serve's accept loop and connection servers
}

// Config configures a Master, once: New builds its dispenser from it and
// plans each stage once. Nothing about a master is set after New.
//
//   - Batches. A reply is one share-bounded batch (dispense.Claim) of at
//     most what the request's Credits ask; no count caps what a worker
//     holds.
//   - Shards. A shard master (Members != nil) stages the ranges Source
//     hands it, each a fresh plan, and never re-plans mid-stage.
//   - Gather. A non-nil InitACP is the step-1(a) gather done by the
//     caller (a scheduler job plans from the fleet's ACPs, so that the
//     gather waits on no worker busy with another job): the master plans
//     at once and publishes no WorkerJoined, since its workers joined the
//     fleet, not the job. Otherwise a distributed scheme plans once every
//     worker has made its first request.
type Config struct {
	Scheme     sched.Scheme
	Iterations int
	Workers    int
	// Powers are the workers' static virtual powers, which the
	// static-weight schemes (WF, WS) split by. nil — a stand-alone master
	// knows nothing of its slaves' hardware before they connect — weighs
	// every worker equally.
	Powers   []float64
	NoReplan bool // turns off the step-2(c) majority re-plan
	// Telemetry receives the master's protocol events (requests, grants,
	// prefetch hits/misses, worker joins, timeouts, rejected
	// resurrections, replans) and wire-level frame counters; nil is inert.
	Telemetry *telemetry.Bus

	// A hierarchy shard's master: Source hands it its ranges (nil means
	// the whole loop, once), Shard labels its events and Members are its
	// workers' run-global ids by shard-local index (Workers of them).
	Source  Source
	Shard   int
	Members []int

	// A scheduler job's master: Job and Tenant tag every event it
	// publishes (zero for a single run); InitACP is the gather, above.
	Job, Tenant int
	InitACP     []int
}

// NewMaster builds a master scheduling `iterations` loop iterations
// across `workers` slaves under the scheme, with every other setting at
// its default.
func NewMaster(scheme sched.Scheme, iterations, workers int) (*Master, error) {
	return New(Config{Scheme: scheme, Iterations: iterations, Workers: workers})
}

// New builds the master cfg describes and stages what its source holds:
// it plans the loop here unless its scheme still gathers, so a bad
// configuration fails New.
func New(cfg Config) (*Master, error) {
	n, workers := cfg.Iterations, cfg.Workers
	switch {
	case workers <= 0:
		return nil, fmt.Errorf("exec: master needs at least one worker")
	case n < 0:
		return nil, fmt.Errorf("exec: negative iteration count")
	case cfg.Members != nil && len(cfg.Members) != workers:
		return nil, fmt.Errorf("exec: %d members for %d workers", len(cfg.Members), workers)
	case cfg.InitACP != nil && len(cfg.InitACP) != workers:
		return nil, fmt.Errorf("exec: %d initial ACPs for %d workers", len(cfg.InitACP), workers)
	}
	src := cfg.Source
	if src == nil {
		src = &whole{n: n}
	}
	m := &Master{
		scheme:     cfg.Scheme,
		iterations: n,
		workers:    workers,
		bus:        cfg.Telemetry,
		shard:      cfg.Shard,
		members:    cfg.Members,
		job:        cfg.Job,
		tenant:     cfg.Tenant,
		src:        src,
		slots:      make([]slot, workers),
		waitHist:   hist.NewSharded(workers),
		compHist:   hist.NewSharded(workers),
		failed:     make(map[int]bool),
		parked:     make([]bool, workers),
		parkNote:   make(chan struct{}, 1),
		stoppedSet: make([]bool, workers),
		done:       make(chan struct{}),
		started:    time.Now(),
	}
	m.b = dispense.NewBook(dispense.Config{
		Scheme: cfg.Scheme, Workers: workers, Powers: cfg.Powers,
		NoReplan: cfg.NoReplan || cfg.Members != nil,
	}, n, (*staging)(m))
	for w := range m.slots {
		m.slots[w].lastSeen = m.started
		if cfg.InitACP != nil {
			m.slots[w].joined = true
			m.b.Report(w, cfg.InitACP[w])
		}
	}
	m.ready = sync.NewCond(&m.mu)
	if _, err := m.b.Restage(-1); err != nil {
		return nil, err
	}
	if n == 0 {
		m.maybeFinish()
	}
	return m, nil
}

// staging is a Master as its book's dispense.Stager; callers hold mu.
type staging Master

// Take hands the book the source's next range, unless a request waits
// on src.Fetch.
func (s *staging) Take() (start, size int, ok bool) {
	if s.fetching {
		return 0, 0, false
	}
	if start, size, ok = s.src.Take(); ok {
		s.staged.Add(int64(size))
	}
	return start, size, ok
}

// Waiting reports whether worker w is parked and alive.
func (s *staging) Waiting(w int) bool { return s.parked[w] && !s.failed[w] }

// id is worker w's id in telemetry events.
func (m *Master) id(w int) int {
	if m.members != nil {
		return m.members[w]
	}
	return w
}

// event returns an event about worker w at instant at, labelled with the
// master's shard, job and tenant.
//
//lint:loopsched-hotpath
func (m *Master) event(kind telemetry.Kind, w int, at float64) telemetry.Event {
	return telemetry.Event{Kind: kind, Worker: m.id(w), Shard: m.shard, Job: m.job, Tenant: m.tenant, At: at}
}

// publish publishes an event about worker w at instant at, carrying the
// ACP its request reported (0 for none). It keeps the event out of the
// request path's frames, which sit on the fresh goroutine net/rpc runs
// each gob call on: a deeper frame there costs a stack copy per chunk.
func (m *Master) publish(kind telemetry.Kind, w, acp int, at float64) {
	e := m.event(kind, w, at)
	e.ACP = acp
	m.bus.Publish(e)
}

// Serve accepts connections until the listener closes, sniffing each
// connection's first byte to route it: the binary wire preamble to
// the framed chunk service, anything else to a net/rpc server
// speaking the gob protocol. It returns immediately; close the
// listener after Wait to shut down.
func (m *Master) Serve(l net.Listener) error {
	srv := rpc.NewServer()
	if err := srv.RegisterName("Master", m); err != nil { // the name gob slaves call
		return err
	}
	m.serving.Add(1)
	go func() {
		defer m.serving.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			m.connMu.Lock()
			m.conns = append(m.conns, conn)
			m.connMu.Unlock()
			m.serving.Add(1)
			go func() {
				defer m.serving.Done()
				m.serveConn(srv, conn)
			}()
		}
	}()
	return nil
}

// ServeConn serves one slave's dialogue over a byte stream the caller
// holds (an mp.Stream to a rank, a pipe) and closes it when the dialogue
// ends: on the Stop that answers a synchronous request, or a stream
// error. Binary codec only — Serve registers the net/rpc service.
func (m *Master) ServeConn(rwc io.ReadWriteCloser) { m.serveConn(nil, rwc) }

func (m *Master) serveConn(srv *rpc.Server, rwc io.ReadWriteCloser) {
	serveSniffed(srv, rwc, m.bus, m.shard, m.nextBatch)
}

// Shutdown closes the listener and every connection accepted by Serve,
// then joins the serving goroutines. Call it after Wait: slaves have
// already been told to stop, so tearing down their connections only
// unblocks any straggling server loops.
func (m *Master) Shutdown(l net.Listener) {
	if l != nil {
		l.Close()
	}
	m.connMu.Lock()
	conns := m.conns
	m.conns = nil
	m.connMu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	m.serving.Wait()
}

// NextChunk is the net/rpc entry point the gob slaves call: the
// one-grant case of nextBatch.
func (m *Master) NextChunk(args ChunkArgs, reply *ChunkReply) error {
	return batchFunc(m.nextBatch).NextChunk(args, reply)
}

// nextBatch is the transport-independent request handler: deposit the
// piggy-backed results, account the worker's timing, then grant one
// share-bounded batch of up to `credits` chunks into rep — or park a
// drained worker, Stop on completion, or answer an unlucky prefetch
// empty. A prefetch that asks for no chunks is a delivery: its results
// are booked and it is granted nothing — a Stop says the run has ended —
// while a plain request asks for one at least.
func (m *Master) nextBatch(args ChunkArgs, credits int, rep *wire.Reply) (err error) {
	if args.Worker < 0 || args.Worker >= m.workers {
		return fmt.Errorf("exec: unknown worker %d", args.Worker)
	}
	if credits < 1 && !args.Prefetch {
		credits = 1
	}
	now := m.now()
	reqAt := m.bus.Now() // request arrival on the telemetry clock
	// Stamp the reply time only when a reply is actually produced: an
	// errored call never reaches the worker's loop, so stamping it
	// would corrupt the next request's communication gap.
	defer func() {
		if err == nil {
			s := &m.slots[args.Worker]
			s.mu.Lock()
			s.lastReply = m.now()
			s.mu.Unlock()
		}
	}()

	// Deposit piggy-backed results first — they are valid data even
	// when the sender has since been declared dead — but count them
	// towards completion only after the request's timing is booked: the
	// count that reaches the loop's length releases Wait.
	fresh, err := m.deposit(args.Results)
	if err != nil {
		m.credit(fresh)
		return err
	}
	rejected := m.account(&args, now, reqAt)
	m.credit(fresh)
	if rejected {
		// Resurrected-worker race: a worker declared dead that calls
		// again was merely slow. Its chunks were requeued, so handing
		// it more work would compute iterations twice; send it home,
		// and keep it out of both the stopped and failed completion
		// counters (it is already in failed).
		rep.Stop = true
		return nil
	}
	if credits < 1 { // a delivery
		rep.Stop = m.doneClosed()
		return nil
	}
	return m.grants(&args, credits, rep, reqAt)
}

// deposit files piggy-backed results into the lock-free ledger, hands
// the source what it filed and returns how many iterations were new. A
// result's whole range is checked before any of its flags flips.
func (m *Master) deposit(results []ChunkResult) (fresh int, err error) {
	for j := range results {
		r := &results[j]
		n := r.Iterations()
		switch {
		case r.Index < 0 || r.Count < 0 || r.Index > m.iterations-n:
			err = fmt.Errorf("exec: result range [%d, +%d) out of range", r.Index, n)
		case r.Count > 0 && len(r.Data) > 0:
			err = fmt.Errorf("exec: run [%d, +%d) carries data", r.Index, n)
		}
		if err != nil {
			m.src.Forward(results[:j])
			return fresh, err
		}
		k := m.b.Deposit(r.Index, r.Index+n)
		if k > 0 && m.members == nil && len(r.Data) > 0 {
			m.resultsOnce.Do(m.makeResults)
			m.results[r.Index] = r.Data
		}
		fresh += k
	}
	m.src.Forward(results)
	return fresh, nil
}

// makeResults gives a flat master its slot per iteration; resultsOnce
// runs it once.
func (m *Master) makeResults() { m.results = make([][]byte, m.iterations) }

// credit counts a request's new results as received and settles the
// stage when its last iteration lands. Every request credits only after
// account has booked its timing, so the report Wait builds once done
// closes misses no delivered chunk's sample.
func (m *Master) credit(fresh int) {
	if fresh > 0 && m.received.Add(int64(fresh)) >= m.staged.Load() {
		m.mu.Lock()
		m.settle()
		m.mu.Unlock()
	}
}

// settle finishes the run once the source is exhausted and every staged
// iteration delivered, and wakes parked requests. Callers hold mu.
func (m *Master) settle() {
	if m.src.Exhausted() && m.received.Load() >= m.staged.Load() {
		m.maybeFinish()
	}
	m.ready.Broadcast()
}

// Wake tells the master that its source changed outside a request, so
// parked requests look again.
func (m *Master) Wake() {
	m.mu.Lock()
	m.settle()
	m.mu.Unlock()
}

// fetch has the source wait for its next range, without mu: upstream may
// hold the call until the run ends (docs/HIERARCHY.md). Callers hold mu;
// it is held again on return.
func (m *Master) fetch() {
	acp := 0
	for w := range m.workers {
		acp += max(m.b.ACP(w), 1)
	}
	m.fetching = true
	m.mu.Unlock()
	err := m.src.Fetch(acp)
	m.mu.Lock()
	m.fetching = false
	if err != nil && m.err == nil {
		m.err = err
	}
	m.settle()
}

// account retires delivered assignments from the worker's ledger,
// requeues abandoned ones, publishes the join/request events and
// books the reported timing. It reports whether the worker has been
// declared dead and must be sent home.
func (m *Master) account(args *ChunkArgs, now time.Time, reqAt float64) (rejected bool) {
	s := &m.slots[args.Worker]
	s.mu.Lock()
	// A non-prefetch request declares the worker has nothing left in
	// flight: any still-undelivered chunk was abandoned (e.g. the worker
	// process restarted) and is requeued rather than lost.
	retired, iters, requeue := m.b.Retire(args.Worker, !args.Prefetch)
	rejected = s.failed
	if !rejected {
		if !s.joined {
			s.joined = true
			m.publish(telemetry.WorkerJoined, args.Worker, args.ACP, reqAt)
		}
		m.publish(telemetry.ChunkRequested, args.Worker, args.ACP, reqAt)
		s.lastSeen = now
		// Per-PE breakdown: the worker reports computation and stall
		// time; the rest of the reply-to-request turnaround is
		// communication (request/result transfer) from the master's
		// point of view. The gap is charged even for near-zero-duration
		// chunks — only the very first request (no previous reply) has
		// no gap to measure. A request reports the seconds since the last
		// one, whatever they covered — several chunks of a batch, or the
		// first part of the chunk in hand when it is sent mid-chunk — so
		// the compute-latency histogram takes its one sample per chunk
		// when the chunk retires: an even split of what has been reported
		// since the last one did. The same seconds, over the iterations
		// retired, are AWF's feedback on the worker's next locked draw: a
		// stand-alone master knows no workload cost, so work is iterations.
		if args.CompSeconds > 0 {
			s.times.Comp += args.CompSeconds
			s.comp += args.CompSeconds
		}
		if retired > 0 {
			m.compHist.RecordN(args.Worker, s.comp/float64(retired), retired)
			m.b.Learn(args.Worker, float64(iters), s.comp)
			s.comp = 0
		}
		if args.IdleSeconds > 0 {
			s.times.Idle += args.IdleSeconds
		}
		if prev := s.lastReply; !prev.IsZero() {
			if gap := now.Sub(prev).Seconds() - args.CompSeconds - args.IdleSeconds; gap > 0 {
				s.times.Comm += gap
			}
		}
	}
	s.mu.Unlock()
	if len(requeue) > 0 {
		m.mu.Lock()
		m.b.Requeue(requeue...)
		m.ready.Broadcast() // a parked worker can pick these up
		m.mu.Unlock()
	}
	if rejected {
		m.publish(telemetry.WorkerRejected, args.Worker, 0, reqAt)
	}
	return rejected
}

// grants is the master's one grant path: the gather barrier, the book's
// grant (its release order, AWF's timing feedback, requeues, staging and
// policy draws with the mid-run replans), parking and stop handling,
// under Master.mu. A reply is one batch (dispense.Book.Grant).
// With nothing to grant a prefetch gets an empty reply, and a plain
// request parks until the gather completes, the run ends or a failure
// requeues work (so a late FailWorker finds a live worker to absorb the
// chunk) — or, on a quiescent master, has the source fetch.
func (m *Master) grants(args *ChunkArgs, credits int, rep *wire.Reply, reqAt float64) error {
	w := args.Worker
	s := &m.slots[w]
	m.mu.Lock()
	defer m.mu.Unlock()
	m.b.Report(w, args.ACP)
	yields := 0
	for {
		switch {
		case m.doneClosed(): // finished, or cancelled (also mid-gather)
			m.stoppedSet[w] = true
			rep.Stop = true
			return nil
		case m.err != nil:
			return m.err
		case m.failed[w]: // failed while parked
			rep.Stop = true
			return nil
		}
		s.mu.Lock()
		runs, replanned, moved, err := m.b.Grant(w, args.ACP, credits)
		if replanned {
			m.publish(telemetry.StageAdvanced, w, 0, m.bus.Now())
		}
		if moved { // the next in line, or a fresh stage: the parked draw again
			m.ready.Broadcast()
		}
		if err != nil {
			m.err = err
			s.mu.Unlock()
			return err
		}
		if len(runs) > 0 || args.Prefetch {
			m.book(args, runs, rep, reqAt)
			s.mu.Unlock()
			return nil
		}
		s.mu.Unlock()
		if !m.fetching && m.b.Gathered() && m.received.Load() >= m.staged.Load() && !m.src.Exhausted() {
			m.fetch() // quiescent: nothing staged is left undelivered
			continue
		}
		// The worker is idle with nothing in flight. Hold the call:
		// either the run completes (Stop), a failed worker's chunk is
		// requeued and lands here, or the source has more.
		yields = m.park(w, args.yield, yields)
	}
}

// park holds worker w's request, under mu, until the master wakes it —
// yielding the first times when the worker shares the master's process
// (yield) — and returns how often it has yielded. Callers hold mu.
func (m *Master) park(w int, yield bool, yields int) int {
	m.parked[w] = true
	select {
	case m.parkNote <- struct{}{}:
	default: // a token is already waiting
	}
	if yield && yields < parkYields {
		yields++
		m.mu.Unlock()
		runtime.Gosched()
		m.mu.Lock()
	} else {
		m.ready.Wait()
	}
	m.parked[w] = false
	s := &m.slots[w]
	s.mu.Lock()
	s.lastSeen = m.now() // parked, not silent
	s.mu.Unlock()
	return yields
}

// parkYields bounds how often a held in-process request yields before
// it sleeps on the condition variable: some hundreds of microseconds.
const parkYields = 1000

// book ships a grant's runs, which the book has entered into the
// worker's holding, in rep: each run as one grant, with or without a
// telemetry bus. An empty grant is published as the prefetch miss it is.
//
//lint:loopsched-hotpath
func (m *Master) book(args *ChunkArgs, runs []sched.Run, rep *wire.Reply, reqAt float64) {
	if len(runs) == 0 {
		m.publish(telemetry.PrefetchMissed, args.Worker, 0, reqAt)
		return
	}
	for _, r := range runs {
		rep.AddRun(r)
		m.observeGrant(args, r, rep, reqAt)
	}
}

// observeGrant is all a telemetry bus adds to a grant of run r (see
// traceGrant); without a bus it does nothing, so a bus-less master's
// frames carry no span block. It keeps the event out of the request
// path's frames, as publish does: net/rpc runs each gob call on a fresh
// goroutine, whose stack a deeper frame there makes it copy per chunk.
func (m *Master) observeGrant(args *ChunkArgs, r sched.Run, rep *wire.Reply, reqAt float64) {
	if m.bus != nil {
		m.traceGrant(args, r, rep, reqAt)
	}
}

// traceGrant stamps run r's span in the reply's span block, publishes
// one span-tagged ChunkGranted (or ChunkPrefetched) event covering the
// run, and records its request-to-grant latency once for each of its
// chunks.
func (m *Master) traceGrant(args *ChunkArgs, r sched.Run, rep *wire.Reply, reqAt float64) {
	kind := telemetry.ChunkGranted
	if args.Prefetch {
		kind = telemetry.ChunkPrefetched
	}
	span, now := telemetry.SpanID(m.job, r.Start), m.bus.Now()
	rep.Spans = append(rep.Spans, span)
	m.waitHist.RecordN(args.Worker, now-reqAt, r.Count)
	e := m.event(kind, args.Worker, now)
	e.Start, e.Size, e.Count, e.ACP, e.Span, e.Seconds = r.Start, r.Size*r.Count, r.Count, args.ACP, span, now-reqAt
	m.bus.Publish(e)
}

// now reads the clock the master times its workers by: the
// communication gap between a reply and the next request, and the
// silence WatchTimeouts acts on.
func (m *Master) now() time.Time {
	if m.clock != nil {
		return m.clock()
	}
	return time.Now()
}

// doneClosed reports whether the run has finished (or been
// cancelled).
func (m *Master) doneClosed() bool {
	select {
	case <-m.done:
		return true
	default:
		return false
	}
}

// maybeFinish closes done once and wakes parked workers so they can be
// stopped; callers hold mu.
func (m *Master) maybeFinish() {
	select {
	case <-m.done:
	default:
		m.finished = time.Now()
		close(m.done)
		if m.ready != nil {
			m.ready.Broadcast()
		}
	}
}

// FailWorker declares a worker dead: its in-flight chunks are
// requeued for the surviving workers, and it no longer counts toward
// run completion. Call it when a slave's connection drops or a
// heartbeat times out; the loop still completes as long as at least
// one worker survives.
func (m *Master) FailWorker(worker int) error {
	if worker < 0 || worker >= m.workers {
		return fmt.Errorf("exec: unknown worker %d", worker)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.failed[worker] || m.stoppedSet[worker] {
		return nil // already accounted for
	}
	m.failed[worker] = true
	m.publish(telemetry.WorkerTimedOut, worker, 0, m.bus.Now())
	s := &m.slots[worker]
	s.mu.Lock()
	s.failed = true
	m.b.Fail(worker) // requeues what it holds, and leaves the release line
	s.mu.Unlock()
	// A worker that dies during the distributed gather must not stall
	// the barrier, nor one that dies in the release line hold it up.
	if !m.b.Planned() && m.b.Report(worker, m.b.ACP(worker)) {
		if _, err := m.b.Restage(-1); err != nil {
			m.err = err
		}
	}
	if len(m.failed) >= m.workers { // nobody is left to produce the rest
		m.maybeFinish()
	}
	m.settle() // wakes parked workers: requeued work, or the end
	return nil
}

// LastContact returns when the worker last called NextChunk (the
// master's start time if it never has).
func (m *Master) LastContact(worker int) (time.Time, error) {
	if worker < 0 || worker >= m.workers {
		return time.Time{}, fmt.Errorf("exec: unknown worker %d", worker)
	}
	s := &m.slots[worker]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastSeen, nil
}

// WatchTimeouts fails any worker silent for longer than `timeout`,
// checking every `interval`, until the run completes or stop is
// closed. It runs in the calling goroutine; start it with `go`. This
// turns FailWorker's manual requeue into automatic crash recovery.
// Workers parked inside a held NextChunk call are alive by definition
// and are never timed out.
func (m *Master) WatchTimeouts(interval, timeout time.Duration, stop <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-stop:
			return
		case <-ticker.C:
			now := m.now()
			m.mu.Lock()
			var stale []int
			for w := 0; w < m.workers; w++ {
				if m.failed[w] || m.parked[w] {
					continue
				}
				s := &m.slots[w]
				s.mu.Lock()
				silent := now.Sub(s.lastSeen) > timeout
				s.mu.Unlock()
				if silent {
					stale = append(stale, w)
				}
			}
			m.mu.Unlock()
			for _, w := range stale {
				// FailWorker re-checks state under the lock.
				_ = m.FailWorker(w)
			}
		}
	}
}

// Outstanding returns the chunks currently in flight, keyed by worker:
// the chunk each is computing and the batches it holds behind it.
func (m *Master) Outstanding() map[int][]sched.Assignment {
	out := make(map[int][]sched.Assignment)
	for w := range m.slots {
		s := &m.slots[w]
		s.mu.Lock()
		for _, r := range m.b.Held(w) {
			out[w] = r.AppendChunks(out[w])
		}
		s.mu.Unlock()
	}
	return out
}

// Parked returns how many workers are currently idling inside a held
// NextChunk call, waiting for requeued work or the end of the run.
func (m *Master) Parked() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, p := range m.parked {
		if p {
			n++
		}
	}
	return n
}

// Cancel aborts the run: parked workers are released with Stop
// replies, in-progress workers are stopped on their next request, and
// Wait returns cause. A nil cause means context.Canceled. Cancelling
// an already-finished run is a no-op.
func (m *Master) Cancel(cause error) {
	if cause == nil {
		cause = context.Canceled
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	select {
	case <-m.done: // finished first; keep that outcome
		return
	default:
	}
	m.cancelErr = cause
	m.maybeFinish()
	m.ready.Broadcast()
}

// WaitContext is Wait with cancellation: when ctx ends first the run
// is cancelled (releasing any workers parked in NextChunk) and ctx's
// error is returned.
func (m *Master) WaitContext(ctx context.Context) ([][]byte, metrics.Report, error) {
	rep, err := m.WaitReport(ctx)
	if m.members != nil {
		return nil, rep, err
	}
	m.resultsOnce.Do(m.makeResults)
	return m.results, rep, err
}

// Wait blocks until the run completes — every iteration delivered, or
// no live worker left to produce the missing ones — and returns the
// collected per-iteration results (one slot per iteration on a flat
// master, nil on a shard master, which forwards them) plus a report.
// Missing results surface as a non-nil error.
func (m *Master) Wait() ([][]byte, metrics.Report, error) {
	return m.WaitContext(context.Background())
}

// WaitReport is WaitContext for a caller that reads no results: the
// report and the error only, without the slot per iteration a loop
// whose kernel returns no bytes never needed.
func (m *Master) WaitReport(ctx context.Context) (metrics.Report, error) {
	select {
	case <-m.done:
	case <-ctx.Done():
		m.Cancel(ctx.Err())
	}
	<-m.done
	m.mu.Lock()
	defer m.mu.Unlock()
	want := m.iterations // owed by a run cut short before its source ended
	if m.src.Exhausted() {
		want = int(m.staged.Load()) // the loop, or what a shard staged
	}
	rep := m.report()
	var err error
	if got := rep.Iterations; got != want {
		err = fmt.Errorf("exec: %d of %d results missing", want-got, want)
	}
	rep.Iterations = want
	if m.cancelErr != nil {
		err = m.cancelErr
	}
	return rep, err
}

// Report returns the run's report so far without waiting for its end:
// Iterations counts the iterations delivered, and Tp runs to now while
// the run lasts.
func (m *Master) Report() metrics.Report {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.report()
}

// report builds the report from what the master has booked; callers hold
// mu.
func (m *Master) report() metrics.Report {
	end := m.finished
	if !m.doneClosed() {
		end = time.Now()
	}
	chunks, _ := m.b.Granted()
	rep := metrics.Report{
		Scheme:     m.scheme.Name(),
		Workers:    m.workers,
		Iterations: int(m.received.Load()),
		Chunks:     chunks,
		Replans:    m.b.Replans(),
		Tp:         end.Sub(m.started).Seconds(),
		PerWorker:  make([]metrics.Times, m.workers),
	}
	rep.GrantLatency = m.waitHist.Snapshot().Summarize()
	rep.CompLatency = m.compHist.Snapshot().Summarize()
	for w := range m.slots {
		s := &m.slots[w]
		s.mu.Lock()
		rep.PerWorker[w] = s.times
		s.mu.Unlock()
	}
	// What is neither computing, communicating nor stalled is waiting.
	for i := range rep.PerWorker {
		if wait := rep.Tp - rep.PerWorker[i].Total(); wait > 0 {
			rep.PerWorker[i].Wait = wait
		}
	}
	return rep
}

// Granted returns the chunks booked to workers so far and the iterations
// in them, requeued chunks counted again. Once the run has ended both are
// final.
func (m *Master) Granted() (chunks int, iterations int64) { return m.b.Granted() }

// Drained reports whether a flat master has handed out its whole loop,
// so a request gets nothing more — unless FailWorker requeues a chunk.
func (m *Master) Drained() bool {
	return m.staged.Load() == int64(m.iterations) && m.b.Drained()
}

// Latencies returns the master's grant-latency and compute-latency
// histograms, for a caller that merges several masters' into one report.
func (m *Master) Latencies() (grant, comp hist.Snapshot) {
	return m.waitHist.Snapshot(), m.compHist.Snapshot()
}

// Kernel computes one iteration and returns its serialized result.
type Kernel func(iteration int) []byte

// Worker is an RPC slave: it dials a Link to the master and runs the
// slave loop over it (runWindow) — requesting chunks, computing them
// with the kernel and piggy-backing the results.
type Worker struct {
	ID int
	// Kernel computes one iteration.
	Kernel Kernel
	// Body, when set, runs in place of Kernel where nothing reads the
	// results: bare (Compute), shipping runs only.
	Body func(i int)
	// VirtualPower is the slave's V_i (≥ 1; 0 means 1).
	VirtualPower float64
	// LoadProbe returns the current external load (Q_i − 1); nil
	// means unloaded. It is called once per request, on the worker's
	// own goroutine.
	LoadProbe func() int
	// ACPModel converts power and load into the reported ACP.
	ACPModel acp.Model
	// WorkScale repeats the kernel per iteration to emulate a slower
	// machine (1 = full speed).
	WorkScale int
	// Pipeline turns the slave loop's prefetch on: the next chunks are
	// requested, and the results so far uploaded, one measured master
	// round trip before the work in hand runs out, hiding the round trip
	// whenever it is shorter than that work. Over gob, whose server
	// grants one chunk per call, the worker asks when dry regardless.
	Pipeline bool
	// Transport selects the wire format (empty uses DefaultTransport,
	// i.e. the LOOPSCHED_TRANSPORT environment variable or the binary
	// codec).
	Transport Transport
	// Telemetry, when non-nil, receives a ChunkCompleted event for
	// every run of chunks this worker computes. TelemetryID and TelemetryShard
	// label those events; TelemetryID must be the run-global worker id
	// (the hierarchical runtime hands workers shard-local IDs).
	Telemetry      *telemetry.Bus
	TelemetryID    int
	TelemetryShard int

	clock func() time.Time // scripted time, for tests; nil means time.Now
	trips float64          // round trips an ask covers, set by RunLink; 0 means 1
}

func (w Worker) power() float64 {
	if w.VirtualPower <= 0 {
		return 1
	}
	return w.VirtualPower
}

// Run connects to the master at addr and participates until stopped.
func (w Worker) Run(addr string) error {
	return w.RunContext(context.Background(), addr)
}

// RunContext is Run with cancellation: the dial honours ctx, and a
// cancellation mid-run closes the link, which unblocks any in-flight
// call; the method then returns ctx's error.
func (w Worker) RunContext(ctx context.Context, addr string) error {
	link, err := Dial(ctx, addr, w.Transport)
	if err != nil {
		return err
	}
	return w.RunLink(ctx, link)
}

// RunLink is RunContext over a ready link — a dialled one,
// wire.NewClient over any byte stream (an mp.Stream to rank 0), or
// Master.Link in the same process — which the worker closes when the
// dialogue ends or ctx does.
func (w Worker) RunLink(ctx context.Context, link Link) (err error) {
	defer link.Close()
	if w.Kernel == nil && w.Body == nil {
		return errors.New("exec: worker needs a kernel or a body")
	}
	stop := context.AfterFunc(ctx, func() { link.Close() }) // unblocks an in-flight call
	defer stop()
	prefetch := w.Pipeline
	switch c := link.(type) {
	case *wire.Conn:
		c.SetTelemetry(w.Telemetry, w.TelemetryID, w.TelemetryShard)
	case *memLink:
		// Send runs the handler on this goroutine: no prefetch hides it.
		w.trips = UnhiddenTrips
	case *gobLink:
		// Its server grants one chunk per call whatever is asked, so no
		// ask outlasts a round trip: a prefetch would hide one chunk at
		// most, less than it costs on a fine loop. It asks when dry.
		prefetch = false
	}
	err = w.runWindow(ctxLink{link, ctx.Done()}, prefetch, 0)
	if cerr := ctx.Err(); cerr != nil {
		return cerr
	}
	return err
}
