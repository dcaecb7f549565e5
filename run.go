package loopsched

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"loopsched/internal/exec"
	"loopsched/internal/hier"
	"loopsched/internal/metrics"
	"loopsched/internal/mp"
	"loopsched/internal/sim"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/wire"
)

// ---- The unified entry point ----
//
// Run executes one self-scheduled loop on a chosen backend. It is the
// recommended entry point: the same RunSpec — scheme, workload, and a
// description of the machines — runs unchanged on the discrete-event
// simulator, the in-process goroutine executor, the net/rpc runtime
// (self-hosted on loopback), or the message-passing substrate, flat or
// hierarchical, and always honours context cancellation.

// Backend names an execution substrate for Run.
type Backend string

const (
	// BackendSim runs the deterministic discrete-event simulator.
	BackendSim Backend = "sim"
	// BackendLocal runs goroutine workers that call the same master as
	// BackendRPC directly, over memory links: no codec, no socket.
	BackendLocal Backend = "local"
	// BackendRPC self-hosts the net/rpc master and workers on loopback
	// TCP — the full wire protocol without external processes.
	BackendRPC Backend = "rpc"
	// BackendMP runs the same master and slaves as BackendRPC over an
	// in-process message-passing world: MPI-style ranks instead of
	// sockets.
	BackendMP Backend = "mp"
)

// Hierarchy tunes the two-level (root + submasters) runtime; attach
// one to RunSpec.Hierarchy to run hierarchically. The zero value picks
// the documented defaults (⌈√p⌉ shards, halving grants, steal-half).
type Hierarchy = hier.Config

// DefaultShards returns the default submaster count for p workers.
func DefaultShards(p int) int { return hier.DefaultShards(p) }

// ShardStats is one submaster's slice of a hierarchical run; see
// Report.Shards.
type ShardStats = metrics.ShardStats

// FormatShards renders a hierarchical report's per-shard breakdown as
// a table (empty string for flat runs).
func FormatShards(r Report) string { return metrics.FormatShards(r) }

// RunSpec describes one loop execution for Run. Scheme and Workload
// are always required; the remaining fields depend on the backend:
//
//   - BackendSim uses Cluster and Sim;
//   - BackendLocal uses Workers and Body (or Kernel);
//   - BackendRPC and BackendMP use Workers and Kernel (or Body).
//
// Setting Hierarchy selects the two-level runtime on the sim, local
// and rpc backends (the mp backend is flat-only).
type RunSpec struct {
	// Scheme is the self-scheduling scheme (see LookupScheme).
	Scheme Scheme
	// Workload is the loop: its length and per-iteration costs.
	Workload Workload
	// Backend selects the substrate; empty means BackendSim.
	Backend Backend

	// Cluster describes the simulated machines (BackendSim).
	Cluster Cluster
	// Sim tunes the simulated protocol (BackendSim).
	Sim SimParams

	// Workers emulate heterogeneous slaves (local, rpc, mp backends):
	// one goroutine / RPC slave / rank per entry, slowed by WorkScale.
	Workers []*WorkerSpec
	// Body executes one iteration for its side effects. Required on
	// BackendLocal unless Kernel is set. It runs bare wherever nothing
	// reads results; a panic in it, or in Kernel, is Run's error.
	Body func(i int)
	// Kernel computes one iteration and serialises its result (rpc and
	// mp backends). On BackendLocal it runs, bytes dropped, only without
	// a Body.
	Kernel Kernel
	// ACP is the availability model distributed schemes report with.
	ACP ACPModel
	// Pipeline lets local, rpc and mp workers request more work ahead of
	// need: one measured master round trip before what they hold runs
	// out, so the round trip hides behind the kernel and a chunk is bound
	// to a worker only when it is about to need it (DESIGN.md §9).
	Pipeline bool
	// Transport selects the RPC wire format: "binary" (the framing
	// codec of internal/wire, the default) or "netrpc" (net/rpc +
	// gob). Empty consults the LOOPSCHED_TRANSPORT environment
	// variable and falls back to binary. The master side needs no
	// configuration — it serves both on one listener. The mp backend
	// always speaks binary.
	Transport string
	// CreditWindow is retired: a positive value is ErrCreditWindow, and
	// zero or below runs. Every batch is sized by the worker's ask for
	// what outlasts its measured round trip to the master, granted up to
	// the worker's share (DESIGN.md §9). The field goes when the
	// benchmark stops setting it (ROADMAP item 2).
	CreditWindow int
	// Ledger is accepted and ignored: every backend grants only through
	// the master's request/reply dialogue, one locked dispense.Claim per
	// reply (docs/LEDGER.md). "on", "off" and "" are valid; any
	// other value is an error. The field goes when the benchmark retires
	// its rpc_ledger cell (ROADMAP item 2).
	Ledger string
	// LocalEngine is accepted and ignored: BackendLocal has one
	// in-process runtime, and EngineChannel, EngineSteal and "" all pick
	// it (docs/LOCAL.md); any other name is an error. The field and the
	// two names go when the benchmark retires its local_channel and
	// local_steal cells (ROADMAP item 2).
	LocalEngine string
	// DisableReplan turns off the majority re-plan (ablation). The
	// hierarchical root always runs with re-planning disabled.
	DisableReplan bool
	// Trace, when non-nil, records chunk-level events on every backend:
	// rebuilt from the Telemetry session's event stream when one is
	// attached; otherwise recorded by the simulator itself (as Sim.Trace,
	// unless that is set already) or, on the local, rpc and mp backends,
	// from a private event stream.
	Trace *Trace

	// Hierarchy, when non-nil, runs the two-level sharded runtime.
	Hierarchy *Hierarchy

	// Telemetry, when non-nil, streams live protocol events from the
	// run — chunk requests/grants/completions, worker joins, steals,
	// stage advances — into the session's aggregator, optional debug
	// HTTP endpoint, and optional Perfetto exporter. See NewTelemetry.
	Telemetry *Telemetry
}

// Executor runs RunSpecs on one backend. NewExecutor returns the
// implementation for a Backend; Run is the one-call convenience.
type Executor interface {
	Run(ctx context.Context, spec RunSpec) (Report, error)
}

// NewExecutor returns the Executor for a backend. The empty Backend
// means BackendSim.
func NewExecutor(b Backend) (Executor, error) {
	switch b {
	case "", BackendSim:
		return simExecutor{}, nil
	case BackendLocal:
		return masterExecutor{BackendLocal, memory}, nil
	case BackendRPC:
		return masterExecutor{BackendRPC, loopbackTCP}, nil
	case BackendMP:
		return masterExecutor{BackendMP, mpWorld}, nil
	default:
		return nil, fmt.Errorf("loopsched: unknown backend %q", b)
	}
}

// Run executes the spec on its backend and returns the paper-style
// report. Cancelling ctx stops the run promptly on every backend:
// masters stop handing out chunks, workers drain, and Run returns
// ctx's error (iterations already started still complete). A cancel
// loses only to completion: once the master — a hierarchy's root — has
// every result, cancelling is a no-op and Run returns the report with a
// nil error. A flat local run's workers check ctx before every request
// over their memory links, and a hierarchy's shards before every fetch
// from the root, so there a run cancelled before its last result was
// sent always returns ctx's error.
//
// Run is the single-job form of the scheduler service: a scheduler job
// is the same master over the same memory links as a local run, and
// publishes to the same event bus. Run validates its spec through
// RunSpec.validate; Scheduler.Submit has its own, smaller check of a
// JobSpec (scheme, workload and body required). Use NewScheduler when a
// stream of jobs should share one worker fleet.
func Run(ctx context.Context, spec RunSpec) (Report, error) {
	ex, err := NewExecutor(spec.Backend)
	if err != nil {
		return Report{}, err
	}
	finish := beginTelemetry(&spec)
	defer finish()
	return ex.Run(ctx, spec)
}

// beginTelemetry announces the run on the spec's telemetry session and
// returns the function that closes the run out (RunFinished, then a
// flush so the aggregator and exporters have seen every event before
// Run returns). When spec.Trace is also set, the trace is rebuilt from
// the event stream — a bus subscriber mirrors every completed chunk —
// so backends with no native trace plumbing (the rpc runtimes) still
// produce one; spec.Trace is cleared before dispatch so backends that
// do fill traces natively don't record each chunk twice.
func beginTelemetry(spec *RunSpec) func() {
	t := spec.Telemetry
	if t == nil || spec.Scheme == nil || spec.Workload == nil {
		return func() {}
	}
	bus := t.Bus()
	var sub telemetry.Subscriber
	if spec.Trace != nil {
		sub = telemetry.TraceSubscriber(spec.Trace)
		bus.Subscribe(sub)
		spec.Trace = nil
	}
	backend := spec.Backend
	if backend == "" {
		backend = BackendSim
	}
	workers := len(spec.Workers)
	if workers == 0 {
		workers = len(spec.Cluster.Machines)
	}
	bus.BeginRun(telemetry.RunMeta{
		Scheme:     spec.Scheme.Name(),
		Workload:   spec.Workload.Name(),
		Backend:    string(backend),
		Workers:    workers,
		Iterations: spec.Workload.Len(),
	})
	bus.Publish(telemetry.Event{Kind: telemetry.RunStarted, At: bus.Now()})
	return func() {
		bus.Publish(telemetry.Event{Kind: telemetry.RunFinished, At: bus.Now()})
		bus.Flush()
		if sub != nil {
			bus.Unsubscribe(sub)
		}
	}
}

// ErrCreditWindow is Run's and NewScheduler's answer to a positive
// CreditWindow: no count caps a batch, which the worker's depth-rule ask
// and the master's share bound alone (DESIGN.md §9).
var ErrCreditWindow = errors.New("loopsched: CreditWindow is retired; the depth rule and the share size every batch")

// validate checks the whole spec: the backend-independent requirements
// plus every per-backend structural check (worker lists, transports,
// hierarchy support). Run and every executor reject bad specs through
// this function, so an error message never depends on which of them saw
// the spec first. Scheduler.Submit does not use it: a JobSpec is checked
// by the service (JobSpec.validate in internal/service).
func (s RunSpec) validate() error {
	if s.Scheme == nil {
		return fmt.Errorf("loopsched: RunSpec.Scheme is required")
	}
	if s.Workload == nil {
		return fmt.Errorf("loopsched: RunSpec.Workload is required")
	}
	if s.Hierarchy != nil {
		if err := s.Hierarchy.Validate(); err != nil {
			return err
		}
	}
	if _, ok := exec.LedgerMode(s.Ledger).Normalize(); !ok {
		return fmt.Errorf("loopsched: unknown ledger mode %q", s.Ledger)
	}
	if s.CreditWindow > 0 {
		return ErrCreditWindow
	}
	switch s.Backend {
	case "", BackendSim:
		// The simulator takes its machines from Cluster; an empty
		// cluster is a valid (trivial) simulation.
	case BackendLocal:
		if len(s.Workers) == 0 {
			return fmt.Errorf("loopsched: local backend needs Workers")
		}
		switch s.LocalEngine {
		case "", EngineChannel, EngineSteal:
		default:
			return fmt.Errorf("loopsched: unknown local engine %q", s.LocalEngine)
		}
	case BackendRPC:
		if len(s.Workers) == 0 {
			return fmt.Errorf("loopsched: rpc backend needs Workers")
		}
		if _, ok := exec.Transport(s.Transport).Normalize(); !ok {
			return fmt.Errorf("loopsched: unknown transport %q", s.Transport)
		}
	case BackendMP:
		if s.Hierarchy != nil {
			return fmt.Errorf("loopsched: the mp backend is flat-only; use sim, local or rpc for hierarchies")
		}
		if len(s.Workers) == 0 {
			return fmt.Errorf("loopsched: mp backend needs Workers")
		}
	default:
		return fmt.Errorf("loopsched: unknown backend %q", s.Backend)
	}
	return nil
}

// ---- Simulator backend ----

type simExecutor struct{}

func (simExecutor) Run(ctx context.Context, spec RunSpec) (Report, error) {
	spec.Backend = BackendSim
	if err := spec.validate(); err != nil {
		return Report{}, err
	}
	if spec.Telemetry != nil {
		spec.Sim.Telemetry = spec.Telemetry.Bus()
	}
	if spec.Trace != nil && spec.Sim.Trace == nil { // no session took it
		spec.Sim.Trace = spec.Trace
	}
	if spec.Hierarchy != nil {
		return hier.Simulate(ctx, spec.Cluster, spec.Scheme, spec.Workload, spec.Sim, *spec.Hierarchy)
	}
	return sim.RunContext(ctx, spec.Cluster, spec.Scheme, spec.Workload, spec.Sim)
}

// ---- local, rpc and mp backends: exec.Master and its slaves ----

// masterExecutor self-hosts exec.Master and its slaves; open is the
// backend's way from one to the other.
type masterExecutor struct {
	backend Backend
	open    reach
}

func (e masterExecutor) Run(ctx context.Context, spec RunSpec) (Report, error) {
	spec.Backend = e.backend
	if err := spec.validate(); err != nil {
		return Report{}, err
	}
	if spec.Body == nil && spec.Kernel == nil {
		return Report{}, fmt.Errorf("loopsched: RunSpec needs Body or Kernel on backend %q", spec.Backend)
	}
	bus := spec.Telemetry.Bus()
	if spec.Trace != nil {
		var untrace func()
		bus, untrace = traceBus(spec, bus)
		defer untrace()
	}
	if spec.Hierarchy != nil { // local and rpc: validate refuses it on mp
		return runHierarchy(ctx, spec, bus, e.open)
	}
	return runFlat(ctx, spec, bus, e.open)
}

// traceBus has spec.Trace record every chunk the run completes from bus
// — a private one when bus is nil — and returns the bus to publish on
// and the function that ends the recording.
func traceBus(spec RunSpec, bus *telemetry.Bus) (*telemetry.Bus, func()) {
	sub := telemetry.TraceSubscriber(spec.Trace)
	if bus != nil {
		bus.Subscribe(sub)
		return bus, func() { bus.Flush(); bus.Unsubscribe(sub) }
	}
	bus = telemetry.NewBus(0)
	bus.Subscribe(sub)
	bus.BeginRun(telemetry.RunMeta{
		Scheme: spec.Scheme.Name(), Workload: spec.Workload.Name(),
		Backend: string(spec.Backend), Workers: len(spec.Workers), Iterations: spec.Workload.Len(),
	})
	return bus, func() { bus.Close() }
}

// rpcWorker builds the exec.Worker for spec.Workers[i].
func rpcWorker(spec RunSpec, bus *telemetry.Bus, powers []float64, i int) exec.Worker {
	ws := spec.Workers[i]
	w := exec.Worker{
		ID:           i,
		Kernel:       spec.Kernel,
		Body:         spec.Body,
		VirtualPower: powers[i],
		LoadProbe:    ws.Load,
		ACPModel:     spec.ACP,
		WorkScale:    ws.WorkScale,
		Pipeline:     spec.Pipeline,
		Transport:    exec.Transport(spec.Transport),
		Telemetry:    bus,
		TelemetryID:  i,
	}
	switch kernel := spec.Kernel; {
	case kernel != nil && spec.Backend != BackendLocal:
		w.Body = nil // the results are shipped: the kernel arm
	case w.Body == nil:
		w.Body = func(i int) { kernel(i) } // nothing reads a local run's results: bare
	}
	return w
}

// reach is how the clients of one master get to it: dial opens client
// id's link — a worker's, or a submaster's to the root — and done tears
// the serving side down and joins it.
type reach func(m *exec.Master, spec RunSpec, clients int) (dial func(ctx context.Context, id int) (exec.Link, error), done func(), err error)

// memory (local): a client's link calls the master in its own goroutine.
func memory(m *exec.Master, _ RunSpec, _ int) (func(context.Context, int) (exec.Link, error), func(), error) {
	return func(context.Context, int) (exec.Link, error) { return m.Link(), nil }, func() {}, nil
}

// loopbackTCP (rpc): the master serves a loopback listener, clients dial
// it over spec's transport.
func loopbackTCP(m *exec.Master, spec RunSpec, _ int) (func(context.Context, int) (exec.Link, error), func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	if err := m.Serve(ln); err != nil {
		ln.Close()
		return nil, nil, err
	}
	addr, t := ln.Addr().String(), exec.Transport(spec.Transport)
	return func(ctx context.Context, _ int) (exec.Link, error) { return exec.Dial(ctx, addr, t) },
		func() { m.Shutdown(ln) }, nil
}

// mpWorld (mp): the master is rank 0 of an in-process world, client i is
// rank i+1 and speaks the binary codec over its stream to rank 0. The
// world is the run's own, so a cancelled worker unblocks itself by closing
// its endpoint and closing them all ends any dialogue left open.
func mpWorld(m *exec.Master, _ RunSpec, p int) (func(context.Context, int) (exec.Link, error), func(), error) {
	world, err := mp.NewWorld(p + 1)
	if err != nil {
		return nil, nil, err
	}
	join := serveRanks(m, world[0])
	dial := func(_ context.Context, id int) (exec.Link, error) {
		c, err := wire.NewClient(mp.Stream(world[id+1], 0))
		if err != nil {
			return nil, err
		}
		return c, nil
	}
	return dial, func() {
		for _, c := range world {
			c.Close()
		}
		join()
	}, nil
}

// runWorker runs w's whole dialogue over the link dial opens for it.
func runWorker(ctx context.Context, w exec.Worker, dial func(context.Context, int) (exec.Link, error)) error {
	link, err := dial(ctx, w.ID)
	if err != nil {
		return err
	}
	return w.RunLink(ctx, link)
}

// runFlat is the flat run of the local, rpc and mp backends: one
// exec.Master, one exec.Worker per spec.Workers entry, and open between
// them.
func runFlat(ctx context.Context, spec RunSpec, bus *telemetry.Bus, open reach) (Report, error) {
	n := spec.Workload.Len()
	p := len(spec.Workers)
	powers := exec.VirtualPowers(spec.Workers)
	master, err := exec.New(exec.Config{
		Scheme: spec.Scheme, Iterations: n, Workers: p, Powers: powers,
		NoReplan: spec.DisableReplan, Telemetry: bus,
	})
	if err != nil {
		return Report{}, err
	}
	dial, done, err := open(master, spec, p)
	if err != nil {
		return Report{}, err
	}
	defer done()

	var wg sync.WaitGroup
	for i := range spec.Workers {
		w := rpcWorker(spec, bus, powers, i)
		wg.Add(1)
		go func(w exec.Worker) {
			defer wg.Done()
			if werr := runWorker(ctx, w, dial); werr != nil && ctx.Err() == nil {
				// A broken worker must not hang the run: surface its
				// error through the master.
				master.Cancel(fmt.Errorf("loopsched: %s worker %d: %w", spec.Backend, w.ID, werr))
			}
		}(w)
	}
	rep, err := master.WaitReport(ctx)
	wg.Wait()
	rep.Workload = spec.Workload.Name()
	return rep, err
}

// rootLink is a shard's link to the root that hands the root the run's
// cancellation before every fetch (a Submaster fetches with Call). The
// shards' workers run on their own context, so otherwise a cancel
// reaches the root only once the goroutine waiting on it is scheduled —
// on a short loop, after the shards have delivered everything — and a
// run cancelled before its last result was sent would complete.
type rootLink struct {
	exec.Link
	ctx  context.Context
	root *exec.Master
}

func (l rootLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := l.ctx.Err(); err != nil {
		l.root.Cancel(err)
	}
	return l.Link.Call(req, rep)
}

// runHierarchy is the two-level run of the local and rpc backends: the
// root is an exec.Master running the hierarchy's allocator as its scheme,
// each of its clients a hier.Submaster — itself an exec.Master for its
// shard's workers — and open is the way to both kinds of master.
func runHierarchy(ctx context.Context, spec RunSpec, bus *telemetry.Bus, open reach) (Report, error) {
	n := spec.Workload.Len()
	p := len(spec.Workers)
	powers := exec.VirtualPowers(spec.Workers)
	k := spec.Hierarchy.Shards
	if k <= 0 {
		k = hier.DefaultShards(p)
	}
	if k > p {
		k = p
	}
	members := hier.AssignShards(powers, k)

	// Steals make root grants non-monotone, so mid-run re-planning must
	// stay off. The root master itself publishes no telemetry — its
	// grants are super-chunks and would double-count against the
	// submasters' — but the allocator reports steals on the bus.
	captured := new(*hier.Root)
	root, err := exec.New(exec.Config{
		Scheme: hier.RootScheme{
			Config: *spec.Hierarchy,
			OnRoot: func(r *hier.Root) {
				*captured = r
				r.SetTelemetry(bus)
			},
		},
		Iterations: n, Workers: k, NoReplan: true,
	})
	if err != nil {
		return Report{}, err
	}
	dialRoot, rootDone, err := open(root, spec, k)
	if err != nil {
		return Report{}, err
	}
	defer rootDone()

	subs := make([]*hier.Submaster, k)
	var wg sync.WaitGroup
	// Workers unwind through the Stop protocol: cancelling the run
	// cancels the root, whose released fetches end the shard masters'
	// sources. Killing the worker links with the caller's ctx instead
	// would strand the shards mid-count, so workers get their own
	// context, cancelled only if a shard fails to drain.
	workerCtx, workerCancel := context.WithCancel(context.Background())
	defer workerCancel()
	for si, ids := range members {
		link, err := dialRoot(context.Background(), si)
		if err != nil {
			root.Cancel(err)
			break
		}
		shardPowers := make([]float64, len(ids))
		for li, wi := range ids {
			shardPowers[li] = powers[wi]
		}
		sub, err := hier.NewSubmaster(exec.Config{
			Scheme: spec.Scheme, Iterations: n, Workers: len(ids), Powers: shardPowers,
			Telemetry: bus, Shard: si, Members: ids,
		}, rootLink{link, ctx, root})
		if err != nil {
			root.Cancel(err)
			break
		}
		defer sub.Close()
		dial, done, err := open(sub.Master, spec, len(ids))
		if err != nil {
			root.Cancel(err)
			break
		}
		defer done()
		subs[si] = sub
		for li, wi := range ids {
			w := rpcWorker(spec, bus, powers, wi)
			w.ID = li // worker ids are shard-local; telemetry keeps the global id
			w.TelemetryShard = si
			wg.Add(1)
			go func(w exec.Worker) {
				defer wg.Done()
				if werr := runWorker(workerCtx, w, dial); werr != nil && workerCtx.Err() == nil {
					werr = fmt.Errorf("loopsched: %s worker %d: %w", spec.Backend, w.TelemetryID, werr)
					root.Cancel(werr)
					sub.Cancel(werr)
				}
			}(w)
		}
	}

	rep, err := root.WaitReport(ctx)

	// Even after cancellation the shards drain (released parked fetches
	// end their sources), but never wait on them unboundedly: a shard
	// that has not drained by then is cancelled, which sends its workers
	// home.
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer drainCancel()
	shards := make([]Report, k)
	for si, sub := range subs {
		if sub == nil {
			continue
		}
		var werr error
		if shards[si], werr = sub.WaitReport(drainCtx); werr != nil && err == nil {
			err = fmt.Errorf("loopsched: shard %d: %w", si, werr)
		}
	}
	workerCancel()
	wg.Wait()

	// The report describes the p workers, from the shard masters' books;
	// the root's own describes the k shards as if they were workers.
	rep.Scheme, rep.Workload = spec.Scheme.Name(), spec.Workload.Name()
	rep.Workers, rep.Chunks = p, 0
	rep.PerWorker = make([]metrics.Times, p)
	var grant, comp hist.Snapshot
	if r := *captured; r != nil {
		rep.Steals = r.Steals()
		rep.Shards = rep.Shards[:0]
		for si, sub := range subs {
			if sub == nil {
				continue
			}
			sr := shards[si]
			var shardComp float64
			for li, wi := range members[si] {
				t := sr.PerWorker[li]
				t.Wait = max(0, rep.Tp-t.Comm-t.Comp-t.Idle)
				rep.PerWorker[wi] = t
				shardComp += t.Comp
			}
			g, c := sub.Latencies()
			grant.Merge(g)
			comp.Merge(c)
			rep.Chunks += sr.Chunks
			rep.Shards = append(rep.Shards,
				r.Stats(si, len(members[si]), sr.Iterations, sr.Chunks, shardComp, sr.Tp))
		}
	}
	rep.GrantLatency, rep.CompLatency = grant.Summarize(), comp.Summarize()
	return rep, err
}
