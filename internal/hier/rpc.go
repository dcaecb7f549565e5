package hier

import (
	"context"
	"fmt"
	"net"
	"net/rpc"
	"sync"
	"time"

	"loopsched/internal/dispense"
	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// Submaster is the middle tier of the RPC hierarchy. To its workers it
// is indistinguishable from a flat master: it registers the same
// "Master" RPC service name and speaks the same NextChunk protocol, so
// stock exec.Worker slaves connect unchanged. To the root it is a
// pipelined client over the same exec.Link a worker dials: it fetches
// super-chunks one Call at a time — a Prefetch one while the shard
// still has work — piggy-backing the shard's accumulated results on
// every fetch, so the root round-trip hides behind local computation.
//
// Deadlock discipline: a blocking (parkable) fetch is issued only when
// the shard holds no undelivered results — every iteration the
// submaster ever received has either been forwarded or rides on that
// very fetch. The root can therefore retire the shard's ledger
// entirely on receipt, and parking the fetch until the global run
// finishes is safe.
type Submaster struct {
	shard   int
	workers int
	ep      exec.Endpoint
	bg      sync.WaitGroup // in-flight prefetch goroutines

	// root is the upward link, one super-chunk per round trip (the
	// shard-level pipeline, not the credit window, hides its latency).
	// The fetching flag serialises it, and with it rootReq and rootRep.
	root    exec.Link
	rootReq wire.Request
	rootRep wire.Reply

	bus      *telemetry.Bus // nil unless SetTelemetry was called
	globalID []int          // shard-local worker index → run-global id

	mu       sync.Mutex
	cond     *sync.Cond
	buffered []sched.Assignment // fetched super-chunks not yet planned
	fetching bool
	rootDone bool
	rootErr  error

	// d stages one super-chunk at a time (planLocked), each a fresh plan
	// from the members' latest ACP reports — the hierarchy's
	// per-super-chunk adaptivity. The submaster has no machine table for
	// its remote workers, so for the static-weight schemes those reports
	// stand in for virtual powers (proportional on an unloaded slave).
	// With SetLedger on and a step-deterministic scheme every stage arms
	// a fresh step table and local grants become a fetch-add plus a
	// table lookup instead of a policy mutation.
	d    *dispense.Dispenser
	dcfg dispense.Config

	pending     []exec.ChunkResult // results awaiting the next fetch, runs as runs
	outstanding int                // granted iterations not yet deposited back

	iters      int
	chunks     int
	fetches    int
	comp       float64
	stopped    int
	finishedAt time.Time
	done       chan struct{}
}

// NewSubmaster connects shard `shard` to the root master at rootAddr,
// serving `workers` local slaves under the scheme. The root link uses
// exec.DefaultTransport (the LOOPSCHED_TRANSPORT environment variable
// or the binary codec); use NewSubmasterTransport to pick explicitly.
func NewSubmaster(shard int, scheme sched.Scheme, workers int, rootAddr string) (*Submaster, error) {
	return NewSubmasterTransport(shard, scheme, workers, rootAddr, "")
}

// NewSubmasterTransport is NewSubmaster with an explicit root-link
// transport (empty means exec.DefaultTransport). The worker-facing
// listener always speaks both: Serve routes each connection by
// sniffing its first byte, exactly like the flat master.
func NewSubmasterTransport(shard int, scheme sched.Scheme, workers int, rootAddr string, transport exec.Transport) (*Submaster, error) {
	if workers <= 0 {
		return nil, fmt.Errorf("hier: submaster needs at least one worker")
	}
	root, err := exec.Dial(context.Background(), rootAddr, transport)
	if err != nil {
		return nil, err
	}
	s := &Submaster{
		shard:   shard,
		workers: workers,
		root:    root,
		dcfg:    dispense.Config{Scheme: scheme, Workers: workers, NoReplan: true},
		done:    make(chan struct{}),
	}
	s.d = dispense.New(s.dcfg)
	s.cond = sync.NewCond(&s.mu)
	return s, nil
}

// SetTelemetry attaches an event bus: the submaster publishes
// worker-level protocol events (joins, requests, grants, prefetch
// misses, stage advances) tagged with its shard index. globalIDs maps
// the shard-local worker index to the run-global worker id used in
// events; nil keeps local ids. Call before Serve.
func (s *Submaster) SetTelemetry(bus *telemetry.Bus, globalIDs []int) {
	s.mu.Lock()
	s.bus = bus
	s.globalID = globalIDs
	s.mu.Unlock()
}

// SetLedger requests the stage-local scheduling ledger for this
// shard's grants. The mode is advisory exactly as on the flat master:
// a scheme that is not step-deterministic (or is distributed) silently
// keeps the policy path, so "on" is always safe. Call before Serve.
func (s *Submaster) SetLedger(mode exec.LedgerMode) error {
	mode, ok := mode.Normalize()
	if !ok {
		return fmt.Errorf("hier: unknown ledger mode %q", mode)
	}
	s.mu.Lock()
	s.dcfg.Table = mode == exec.LedgerOn
	s.d = dispense.New(s.dcfg)
	s.mu.Unlock()
	return nil
}

// telemetryID maps a shard-local worker index to the id published in
// telemetry events. Callers hold mu.
func (s *Submaster) telemetryID(local int) int {
	if local >= 0 && local < len(s.globalID) {
		return s.globalID[local]
	}
	return local
}

// Serve registers the submaster under the flat master's service name
// and accepts worker connections until the listener closes. Like the
// flat master it sniffs each connection's first byte, so gob and
// binary workers coexist on one listener.
func (s *Submaster) Serve(l net.Listener) error {
	return s.ep.Serve(l, s, func(srv *rpc.Server, conn net.Conn) {
		s.mu.Lock()
		bus := s.bus
		s.mu.Unlock()
		// No FetchAddFunc: the shard's ledger is stage-local — its table
		// changes with every super-chunk — so workers cannot hold a replica
		// and wire-level claims are not served.
		exec.ServeSniffed(srv, conn, bus, s.shard, s.nextBatch, nil)
	})
}

// NextChunk is the worker-facing net/rpc entry point, protocol-
// compatible with exec.Master.NextChunk: the one-grant case of
// nextBatch.
func (s *Submaster) NextChunk(args exec.ChunkArgs, reply *exec.ChunkReply) error {
	return exec.BatchFunc(s.nextBatch).NextChunk(args, reply)
}

// Close joins the in-flight prefetch (the root answers prefetches
// immediately, so this never parks), releases the root connection —
// which errors out any parked blocking fetch — and tears down the
// worker connections accepted by Serve, joining their server
// goroutines. Close the listener first so the accept loop can exit.
func (s *Submaster) Close() error {
	s.bg.Wait()
	err := s.root.Close()
	s.mu.Lock()
	if !s.rootDone && s.rootErr == nil {
		// Wake any NextChunk handler still parked on the pipeline so its
		// ServeConn loop can unwind before we join serveWG.
		s.rootErr = fmt.Errorf("hier: submaster closed")
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ep.Close()
	return err
}

// Wait blocks until every local worker has been stopped, or ctx ends.
func (s *Submaster) Wait(ctx context.Context) error {
	select {
	case <-s.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Counts returns the shard's tallies for the run report; finishedAt is
// zero until the last worker stops. fetches counts root round-trips
// the submaster initiated (its own view; the root counts grants).
func (s *Submaster) Counts() (iters, chunks, fetches int, comp float64, finishedAt time.Time) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.iters, s.chunks, s.fetches, s.comp, s.finishedAt
}

// aggregateACP sums the freshest member reports; callers hold mu.
func (s *Submaster) aggregateACP() int {
	total := 0
	for w := 0; w < s.workers; w++ {
		a := s.d.ACP(w)
		if a < 1 {
			a = 1
		}
		total += a
	}
	return total
}

// nextBatch answers one worker request: file its results and report,
// then reply with one share-bounded batch of at most `credits` chunks
// from the staged super-chunk (dispense.Claim — the same rule as the
// flat master's replies), staging the next buffered one or fetching from
// the root when the stage is drained. A plain request with nothing to
// grant parks until there is, or until the root says stop; a prefetch is
// answered empty at once and keeps the root pipeline primed, so a
// batched worker cannot deadlock the shard.
func (s *Submaster) nextBatch(args exec.ChunkArgs, credits int, rep *wire.Reply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if args.Worker < 0 || args.Worker >= s.workers {
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.WorkerRejected, Worker: args.Worker,
			Shard: s.shard, At: s.bus.Now(),
		})
		return fmt.Errorf("hier: unknown worker %d", args.Worker)
	}
	reqAt := s.bus.Now()
	id := s.telemetryID(args.Worker)

	if len(args.Results) > 0 {
		s.pending = append(s.pending, args.Results...)
		for _, r := range args.Results {
			s.outstanding -= r.Iterations()
		}
		s.cond.Broadcast() // a drained peer may now issue the fetch
	}
	if args.CompSeconds > 0 {
		s.comp += args.CompSeconds
	}
	if s.d.Report(args.Worker, args.ACP) {
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.WorkerJoined, Worker: id,
			Shard: s.shard, ACP: args.ACP, At: reqAt,
		})
		if s.d.Gathered() {
			s.cond.Broadcast() // gather complete: the first fetch may go
		}
	}
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.ChunkRequested, Worker: id,
		Shard: s.shard, ACP: args.ACP, At: reqAt,
	})

	for {
		if s.rootErr != nil {
			return s.rootErr
		}
		if rep.Grants, _ = s.d.Claim(args.Worker, args.ACP, max(credits, 1), rep.Grants); len(rep.Grants) > 0 {
			s.grantLocked(id, &args, rep, reqAt)
			return nil
		}
		if len(s.buffered) > 0 {
			if err := s.planLocked(); err != nil {
				return err
			}
			continue
		}
		if args.Prefetch {
			// Can't give the pipelined worker anything yet: keep a root
			// prefetch moving (a no-op once the root is done) and answer
			// empty — finish your chunk, ask again plainly.
			s.launchPrefetchLocked()
			s.bus.Publish(telemetry.Event{
				Kind: telemetry.PrefetchMissed, Worker: id,
				Shard: s.shard, At: reqAt,
			})
			return nil
		}
		if s.rootDone {
			rep.Stop = true
			s.stopped++
			if s.stopped >= s.workers {
				s.finishedAt = time.Now()
				close(s.done)
			}
			return nil
		}
		// Plain request with nothing local. Fetch from the root once the
		// shard is quiescent (gather done, no undelivered results, no
		// fetch already in flight); otherwise wait for state to change.
		if !s.fetching && s.d.Gathered() && s.outstanding == 0 {
			if err := s.blockingFetchLocked(); err != nil {
				return err
			}
			continue
		}
		s.cond.Wait()
	}
}

// grantLocked books a reply's grants and publishes them — one ledger
// fetch for the claim when the stage armed a table — span-tagging the
// reply when telemetry is attached so the worker's completion closes the
// same flow; a bus-less shard sends v1-identical frames. Callers hold mu.
func (s *Submaster) grantLocked(id int, args *exec.ChunkArgs, rep *wire.Reply, reqAt float64) {
	s.chunks += len(rep.Grants)
	for _, a := range rep.Grants {
		s.iters += a.Size
		s.outstanding += a.Size
	}
	if s.bus == nil {
		return
	}
	if s.d.Table() != nil {
		s.bus.Publish(telemetry.Event{
			Kind: telemetry.LedgerFetch, Worker: id,
			Shard: s.shard, Start: len(rep.Grants), At: s.bus.Now(),
		})
	}
	kind := telemetry.ChunkGranted
	if args.Prefetch {
		kind = telemetry.ChunkPrefetched
	}
	for _, a := range rep.Grants {
		span := telemetry.SpanID(0, a.Start)
		rep.Spans = append(rep.Spans, span)
		now := s.bus.Now()
		s.bus.Publish(telemetry.Event{
			Kind: kind, Worker: id, Shard: s.shard, Start: a.Start, Size: a.Size,
			ACP: args.ACP, Span: span, At: now, Seconds: now - reqAt,
		})
	}
}

// planLocked stages the next buffered super-chunk and keeps the root
// pipeline primed. Callers hold mu.
func (s *Submaster) planLocked() error {
	g := s.buffered[0]
	s.buffered = s.buffered[1:]
	if err := s.d.Stage(g.Start, g.Size); err != nil {
		s.rootErr = err
		s.cond.Broadcast()
		return err
	}
	// Each super-chunk is a fresh scheduling stage for the shard.
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.StageAdvanced, Shard: s.shard,
		Start: g.Start, Size: g.Size, At: s.bus.Now(),
	})
	if len(s.buffered) == 0 {
		s.launchPrefetchLocked()
	}
	return nil
}

// fillFetchLocked loads rootReq with the outgoing fetch: the shard's
// aggregate ACP and every result accumulated since the last one.
// Callers hold mu and have set fetching.
func (s *Submaster) fillFetchLocked(prefetch bool) {
	s.rootReq = wire.Request{
		Worker:   s.shard,
		ACP:      s.aggregateACP(),
		Prefetch: prefetch,
		Credits:  1,
		Results:  s.rootReq.Results[:0],
	}
	for _, res := range s.pending {
		s.rootReq.Results = append(s.rootReq.Results, wire.Record{Index: res.Index, Count: res.Count, Data: res.Data})
	}
	s.pending = nil
	s.fetches++
}

// launchPrefetchLocked starts an asynchronous Prefetch fetch if the
// pipeline is idle. The root answers immediately — possibly with an
// empty reply — so this never parks. Callers hold mu.
func (s *Submaster) launchPrefetchLocked() {
	if s.fetching || s.rootDone || !s.d.Gathered() {
		return
	}
	s.fetching = true
	s.fillFetchLocked(true)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		err := s.root.Call(&s.rootReq, &s.rootRep)
		s.mu.Lock()
		defer s.mu.Unlock()
		s.absorbReplyLocked(err)
	}()
}

// blockingFetchLocked performs a plain (parkable) fetch, dropping mu
// for the duration of the call. Only called when the shard is quiescent
// — see the type comment for why that makes parking at the root safe.
// Callers hold mu; it is held again on return.
func (s *Submaster) blockingFetchLocked() error {
	s.fetching = true
	s.fillFetchLocked(false)
	s.mu.Unlock()
	err := s.root.Call(&s.rootReq, &s.rootRep)
	s.mu.Lock()
	s.absorbReplyLocked(err)
	return err
}

// absorbReplyLocked files the finished fetch. Its results rode on the
// call, so after an error — without knowing whether the root got them
// — the run cannot continue safely. Callers hold mu.
func (s *Submaster) absorbReplyLocked(err error) {
	s.fetching = false
	switch {
	case err != nil:
		s.rootErr = err
	case s.rootRep.Stop:
		s.rootDone = true
	case len(s.rootRep.Grants) > 0:
		s.buffered = append(s.buffered, s.rootRep.Grants[0])
	}
	s.cond.Broadcast()
}
