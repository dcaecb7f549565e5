// Package loopsched is a Go implementation of the loop self-scheduling
// schemes for heterogeneous clusters from Chronopoulos, Andonie,
// Benche and Grosu, "A Class of Loop Self-Scheduling for Heterogeneous
// Clusters" (IEEE CLUSTER 2001).
//
// It provides:
//
//   - the complete family of simple self-scheduling schemes — Static,
//     (Pure/Chunk) Self-Scheduling, Guided, Trapezoid, Factoring,
//     Fixed-Increase, and the paper's new Trapezoid Factoring (TFSS) —
//     plus Weighted Factoring;
//   - their distributed, load-adaptive versions (DTSS, DFSS, DFISS,
//     DTFSS) driven by the Available Computing Power model of §3.1
//     with the §5.2 improvements (decimal powers, scale factor,
//     availability threshold);
//   - Tree Scheduling (Kim & Purtilo) for comparison;
//   - real executors: an in-process goroutine master–worker and a TCP
//     net/rpc master–worker with piggy-backed results;
//   - a deterministic discrete-event simulator of a heterogeneous
//     master–slave cluster (powers, link speeds, run-queue dynamics)
//     for reproducible scheduling experiments;
//   - loop-workload generators (uniform, linear, conditional,
//     irregular) with the paper's sampling reordering, and the
//     Mandelbrot kernel used in its evaluation.
//
// The subsystems live in internal packages; this package is the public
// surface and re-exports everything a downstream user needs.
package loopsched

import (
	"context"
	"fmt"
	"image"
	"io"
	"net"
	"sync"

	"loopsched/internal/acp"
	"loopsched/internal/affinity"
	"loopsched/internal/exec"
	"loopsched/internal/experiments"
	"loopsched/internal/loadgen"
	"loopsched/internal/mandelbrot"
	"loopsched/internal/metrics"
	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/sim"
	"loopsched/internal/telemetry"
	"loopsched/internal/trace"
	"loopsched/internal/tree"
	"loopsched/internal/viz"
	"loopsched/internal/wire"
	"loopsched/internal/workload"
)

// ---- Scheduling schemes ----

// Scheme produces per-run chunk policies; see NewPolicy.
type Scheme = sched.Scheme

// Policy computes successive chunk sizes for one run.
type Policy = sched.Policy

// SchedConfig configures one scheduling run (iterations, workers,
// optional per-worker powers).
type SchedConfig = sched.Config

// Request is a worker's demand for work, optionally carrying its ACP.
type Request = sched.Request

// Assignment is a half-open iteration range [Start, Start+Size).
type Assignment = sched.Assignment

// Scheme constructors. The zero-parameter forms use the paper's
// defaults.
func NewStatic() Scheme           { return sched.StaticScheme{} }
func NewWeightedStatic() Scheme   { return sched.WeightedStaticScheme{} }
func NewSS() Scheme               { return sched.SelfScheduling }
func NewCSS(k int) Scheme         { return sched.CSSScheme{K: k} }
func NewGSS(minChunk int) Scheme  { return sched.GSSScheme{MinChunk: minChunk} }
func NewTSS() Scheme              { return sched.TSSScheme{} }
func NewFSS() Scheme              { return sched.FSSScheme{} }
func NewFISS(stages int) Scheme   { return sched.FISSScheme{Stages: stages} }
func NewTFSS() Scheme             { return sched.TFSSScheme{} }
func NewWF() Scheme               { return sched.WFScheme{} }
func NewDTSS() Scheme             { return sched.DTSSScheme{} }
func NewDFSS() Scheme             { return sched.NewDFSS() }
func NewDFISS(stages int) Scheme  { return sched.NewDFISS(stages) }
func NewDTFSS() Scheme            { return sched.NewDTFSS() }
func NewDGSS(minChunk int) Scheme { return sched.NewDGSS(minChunk) }
func NewDCSS(k int) Scheme        { return sched.NewDCSS(k) }
func NewAWF() Scheme              { return sched.AWFScheme{} }

// WithMinChunk lifts GSS(k)'s minimum-chunk floor onto any scheme.
func WithMinChunk(s Scheme, k int) Scheme { return sched.WithMinChunk(s, k) }

// Synchronized wraps a policy with a mutex so multiple goroutines can
// claim chunks directly (the paper's shared loop-index lock, §2.2).
func Synchronized(p Policy) Policy { return sched.Synchronized(p) }

// ForEach runs body(i) for every i in [0, n) on `workers` goroutines
// under the scheme — the self-scheduled DOALL as a one-liner.
func ForEach(s Scheme, n, workers int, body func(i int)) error {
	return sched.ForEach(s, n, workers, body)
}

// LookupScheme finds a registered scheme by name ("TSS", "DTSS", …).
func LookupScheme(name string) (Scheme, error) { return sched.Lookup(name) }

// SchemeNames lists all registered scheme names.
func SchemeNames() []string { return sched.Names() }

// DescribeSchemes renders the scheme catalogue (formulas, origins,
// trade-offs); filter by category or name, empty for everything.
func DescribeSchemes(filter string) string { return sched.Describe(filter) }

// SchemeCatalogue returns the documented scheme families.
func SchemeCatalogue() []sched.Info { return sched.Catalogue() }

// SchemeInfo documents one scheme family.
type SchemeInfo = sched.Info

// IsDistributed reports whether a scheme consumes run-time load
// information (the paper's section 6 classification).
func IsDistributed(s Scheme) bool { return sched.Distributed(s) }

// ChunkSequence returns the chunk sizes of a homogeneous run of I
// iterations on p workers (clipped; sums to I).
func ChunkSequence(s Scheme, iterations, p int) ([]int, error) {
	return sched.Sequence(s, iterations, p)
}

// ---- Available computing power ----

// ACPModel computes A_i = ⌊scale·V_i/Q_i⌋ (§3.1 with the §5.2 fixes).
type ACPModel = acp.Model

// ---- Workloads ----

// Workload is a parallel loop: independent iterations with costs.
type Workload = workload.Workload

type (
	// Uniform is the constant-cost loop of §2.1.
	Uniform = workload.Uniform
	// LinearIncreasing is the increasing triangular loop of §2.1.
	LinearIncreasing = workload.LinearIncreasing
	// LinearDecreasing is the decreasing triangular loop of §2.1.
	LinearDecreasing = workload.LinearDecreasing
	// FromCosts wraps an explicit per-iteration cost vector.
	FromCosts = workload.FromCosts
	// Reordered is a workload viewed through a permutation.
	Reordered = workload.Reordered
)

// NewConditional builds the IF/ELSE loop of §2.1 deterministically.
func NewConditional(n int, pTrue, cTrue, cFalse float64, seed int64) Workload {
	return workload.NewConditional(n, pTrue, cTrue, cFalse, seed)
}

// Reorder applies the paper's sampling reordering with frequency sf.
func Reorder(w Workload, sf int) Reordered { return workload.Reorder(w, sf) }

// SortDescending reorders a *predictable* loop costliest-first (the
// longest-processing-time heuristic for §2.1's middle difficulty
// class).
func SortDescending(w Workload) Reordered { return workload.SortDescending(w) }

// NewRandom builds a reproducible log-normal random-cost loop.
func NewRandom(n int, mean, sigma float64, seed int64) Workload {
	return workload.NewRandom(n, mean, sigma, seed)
}

// NewAutocorrelated builds an AR(1) cost series whose expensive
// iterations cluster (coefficient rho), the structure the sampling
// reorder exists for.
func NewAutocorrelated(n int, mean, sigma, rho float64, seed int64) Workload {
	return workload.NewAutocorrelated(n, mean, sigma, rho, seed)
}

// WriteCosts persists a workload's per-iteration costs as CSV.
func WriteCosts(w io.Writer, wl Workload) error { return workload.WriteCosts(w, wl) }

// ReadCosts loads a cost profile written by WriteCosts.
func ReadCosts(r io.Reader, label string) (FromCosts, error) {
	return workload.ReadCosts(r, label)
}

// OriginalIndex maps a (possibly reordered) workload iteration back to
// the underlying problem index.
func OriginalIndex(w Workload, i int) int { return workload.OriginalIndex(w, i) }

// ---- Mandelbrot (the paper's test problem) ----

// MandelbrotParams describe a rendering job; the zero Region is not
// valid — use PaperRegion.
type MandelbrotParams = mandelbrot.Params

// MandelbrotRegion is a window of the complex plane.
type MandelbrotRegion = mandelbrot.Region

// PaperRegion is [-2.0, 1.25] × [-1.25, 1.25], the paper's domain.
var PaperRegion = mandelbrot.PaperRegion

// MandelbrotColumn computes one column's per-row escape counts and its
// total work — the smallest schedulable unit of the paper's runs.
func MandelbrotColumn(p MandelbrotParams, c int) (rows []int, work int) {
	return mandelbrot.Column(p, c)
}

// MandelbrotWorkload builds the per-column cost workload of Figure 1.
func MandelbrotWorkload(p MandelbrotParams) Workload {
	return FromCosts{Label: "mandelbrot", Costs: mandelbrot.ColumnCosts(p)}
}

// RenderMandelbrot computes the full fractal image (Figure 2).
func RenderMandelbrot(p MandelbrotParams) *image.Gray { return mandelbrot.Render(p) }

// MandelbrotShadedColumn computes one column as shaded pixel bytes —
// the kernel for distributed renderers.
func MandelbrotShadedColumn(p MandelbrotParams, c int) []byte {
	return mandelbrot.ShadedColumn(p, c)
}

// AssembleMandelbrot builds the image from per-column pixel data.
func AssembleMandelbrot(p MandelbrotParams, columns [][]byte) *image.Gray {
	return mandelbrot.RenderColumns(p, columns)
}

// ---- Metrics ----

type (
	// Report is the outcome of one scheduled execution.
	Report = metrics.Report
	// Times is a per-PE T_com/T_wait/T_comp breakdown.
	Times = metrics.Times
	// Speedup is one point of a speedup curve.
	Speedup = metrics.Speedup
)

// FormatTable renders reports in the paper's Tables 2–3 layout.
func FormatTable(title string, reports []Report) string {
	return metrics.FormatTable(title, reports)
}

// PlotSpeedups renders speedup curves as a terminal chart.
func PlotSpeedups(title string, curves map[string][]Speedup, height int) string {
	return metrics.PlotSpeedups(title, curves, height)
}

// Sparkline renders a numeric series as a compact unicode bar string.
func Sparkline(values []float64, width int) string {
	return metrics.Sparkline(values, width)
}

// SpeedupSVG renders Figure 4–7 style curves as a standalone SVG.
func SpeedupSVG(title string, curves map[string][]Speedup) string {
	return viz.SpeedupSVG(title, curves)
}

// GanttSVG renders an execution trace as an SVG Gantt chart.
func GanttSVG(tr *Trace) string { return viz.GanttSVG(tr) }

// ProfileSVG renders Figure 1 style cost distributions as SVG.
func ProfileSVG(title string, series map[string][]float64) string {
	return viz.ProfileSVG(title, series)
}

// ---- Cluster simulation ----

type (
	// Cluster is a simulated set of slave machines.
	Cluster = sim.Cluster
	// Machine is one simulated slave (power, link, load timeline).
	Machine = sim.Machine
	// Link is a slave's connection to the master.
	Link = sim.Link
	// LoadPhase is an interval of external load on a machine.
	LoadPhase = sim.LoadPhase
	// LoadScript is a machine's external-load timeline.
	LoadScript = sim.LoadScript
	// SimParams tunes the simulated protocol.
	SimParams = sim.Params
	// TreeOptions tunes a Tree Scheduling run.
	TreeOptions = tree.Options
)

// Link speeds, in bytes per second.
const (
	Mbit10  = sim.Mbit10
	Mbit100 = sim.Mbit100
)

// SimulateTree runs Tree Scheduling on the simulated cluster.
func SimulateTree(c Cluster, o TreeOptions, w Workload, p SimParams) (Report, error) {
	return tree.Run(c, o, w, p)
}

// AffinityOptions tune an Affinity Scheduling run (Markatos &
// LeBlanc, the paper's reference [12]).
type AffinityOptions = affinity.Options

// SimulateAffinity runs Affinity Scheduling on the simulated cluster.
func SimulateAffinity(c Cluster, o AffinityOptions, w Workload, p SimParams) (Report, error) {
	return affinity.Run(c, o, w, p)
}

// ReadCluster parses a JSON cluster description (see
// internal/sim.ClusterConfig for the schema) into a Cluster.
func ReadCluster(r io.Reader) (Cluster, error) { return sim.ReadCluster(r) }

// WriteCluster serialises a Cluster as JSON config.
func WriteCluster(w io.Writer, c Cluster) error { return sim.WriteCluster(w, c) }

// PaperCluster builds the paper's testbed mix for p slaves (3 fast :
// 5 slow at p = 8, 3× power ratio, 100/10 Mbit links), optionally with
// the §5.1 non-dedicated background load.
func PaperCluster(p int, nondedicated bool) Cluster {
	return experiments.Cluster(p, nondedicated)
}

// Load-timeline generators for non-dedicated experiments (see
// internal/loadgen): constant background processes (the paper's §5.1
// load), a single burst, Poisson job arrivals, a periodic square wave,
// and a monotone staircase.
func ConstantLoad(extra int) LoadScript { return loadgen.Constant(extra) }
func WindowLoad(start, end float64, extra int) LoadScript {
	return loadgen.Window(start, end, extra)
}
func PoissonLoad(rate, meanDuration, horizon float64, seed int64) LoadScript {
	return loadgen.Poisson(rate, meanDuration, horizon, seed)
}
func SquareLoad(period, duty, horizon float64, extra int) LoadScript {
	return loadgen.Square(period, duty, horizon, extra)
}
func StaircaseLoad(interval float64, steps int) LoadScript {
	return loadgen.Staircase(interval, steps)
}

// ---- Execution traces ----

// Trace records chunk-level execution events; attach one via
// SimParams.Trace or RunSpec.Trace, then render with Gantt or
// export with WriteCSV.
type Trace = trace.Trace

// TraceEvent is one chunk's lifecycle on a worker.
type TraceEvent = trace.Event

// ---- Live telemetry ----

// Telemetry is a live observation session: an event bus every backend
// publishes protocol events to, feeding a metric aggregator, an
// optional HTTP debug endpoint (Prometheus /metrics, expvar,
// net/http/pprof), and an optional Perfetto trace exporter. Attach one
// via RunSpec.Telemetry; one session can observe several runs in
// sequence. Close it when done.
type Telemetry = telemetry.Telemetry

// TelemetryOptions configures NewTelemetry: DebugAddr starts the HTTP
// debug server, Perfetto streams Chrome trace-event JSON to a writer,
// BufferSize overrides the event ring capacity.
type TelemetryOptions = telemetry.Options

// TelemetryEvent is one protocol event on the bus; see Telemetry.
type TelemetryEvent = telemetry.Event

// NewTelemetry starts a live telemetry session.
func NewTelemetry(o TelemetryOptions) (*Telemetry, error) { return telemetry.New(o) }

// ---- Real executors ----

type (
	// WorkerSpec emulates one heterogeneous worker in-process.
	WorkerSpec = exec.WorkerSpec
	// Master is the net/rpc scheduling service.
	Master = exec.Master
	// Worker is a net/rpc slave.
	Worker = exec.Worker
	// Kernel computes one iteration and serialises its result.
	Kernel = exec.Kernel
	// ChunkArgs/ChunkReply/ChunkResult are the RPC wire types.
	ChunkArgs   = exec.ChunkArgs
	ChunkReply  = exec.ChunkReply
	ChunkResult = exec.ChunkResult
	// RPCTransport selects a worker's wire format: "binary" (the
	// framing codec of internal/wire) or "netrpc" (net/rpc + gob).
	// Masters serve both at once by sniffing each connection.
	RPCTransport = exec.Transport
)

// Names RunSpec.LocalEngine accepts and ignores: BackendLocal has one
// in-process runtime, and both pick it. They go with the field when the
// benchmark retires its local_channel and local_steal cells (ROADMAP
// item 2).
const (
	EngineChannel = "channel"
	EngineSteal   = "steal"
)

// NewMaster builds an RPC master scheduling `iterations` across
// `workers` slaves under the scheme. NewMaster + Serve + Wait is the
// manual wiring for multi-process deployments, where master and
// workers run on different hosts; when everything runs in one process,
// Run(ctx, RunSpec{Backend: BackendRPC, …}) self-hosts both on
// loopback.
func NewMaster(scheme Scheme, iterations, workers int) (*Master, error) {
	return exec.NewMaster(scheme, iterations, workers)
}

// OSLoadProbe reads the host's real run-queue pressure from
// /proc/loadavg — the paper's Q_i signal — for Worker.LoadProbe.
func OSLoadProbe() func() int { return exec.OSLoadProbe() }

// ---- Message passing (the MPI-style substrate of internal/mp) ----

type (
	// Comm is one rank's communicator endpoint (rank 0 = master).
	Comm = mp.Comm
	// MPMessage is one received tagged message.
	MPMessage = mp.Message
)

// MPMasterOptions tune RunMPMasterContext.
type MPMasterOptions struct {
	// DisableReplan turns off the step-2(c) majority re-plan.
	DisableReplan bool
	// Powers are the slaves' static virtual powers (index rank−1), which
	// the static-weight schemes (WF, WS) split by; nil weighs them equally.
	Powers []float64
	// Telemetry, when non-nil, receives the master's live protocol
	// events; workers are rank−1, as in Report.PerWorker.
	Telemetry *telemetry.Bus
}

// MPWorkerOptions describe one RunMPWorker slave.
type MPWorkerOptions struct {
	// Kernel computes one iteration's result.
	Kernel func(iteration int) []byte
	// VirtualPower is V_i (0 means 1).
	VirtualPower float64
	// LoadProbe returns the current external load Q_i − 1 (nil = 0).
	LoadProbe func() int
	// ACP converts power and run-queue into the reported A_i.
	ACP ACPModel
	// WorkScale repeats the kernel to emulate a slower machine.
	WorkScale int
}

// Receive wildcards.
const (
	AnySource = mp.AnySource
	AnyTag    = mp.AnyTag
)

// NewWorld creates an in-process message-passing world of n ranks.
func NewWorld(n int) ([]Comm, error) { return mp.NewWorld(n) }

// ListenTCP creates rank 0 of a TCP message-passing star.
func ListenTCP(ln net.Listener, size int) (Comm, error) { return mp.ListenTCP(ln, size) }

// DialTCP joins a TCP world as a worker rank.
func DialTCP(addr string, rank, size int) (Comm, error) { return mp.DialTCP(addr, rank, size) }

// RunMPMasterContext schedules `iterations` loop iterations over the
// communicator's size−1 slaves and collects their results (indexed by
// iteration). The master is the rpc runtime's: each rank's dialogue
// reaches it as wire frames over mp.Stream, in-process or over TCP.
//
// It returns when every slave has been told to stop. When ctx ends the
// master answers each slave's next request with Stop (a parked one at
// once) and returns ctx's error with whatever results arrived; a rank
// yet to make that request — one still dialling — holds the return
// until it has, as a rank that never joins holds an uncancelled run.
func RunMPMasterContext(ctx context.Context, c Comm, scheme Scheme, iterations int, opts MPMasterOptions) ([][]byte, Report, error) {
	if c.Rank() != 0 {
		return nil, Report{}, fmt.Errorf("loopsched: the mp master must be rank 0, not %d", c.Rank())
	}
	master, err := exec.New(exec.Config{
		Scheme: scheme, Iterations: iterations, Workers: c.Size() - 1, Powers: opts.Powers,
		NoReplan: opts.DisableReplan, Telemetry: opts.Telemetry,
	})
	if err != nil {
		return nil, Report{}, err
	}
	if err := ctx.Err(); err != nil {
		master.Cancel(err) // before any rank is served, so none is granted work
	}
	defer serveRanks(master, c)() // joined on the way out: every rank has its Stop
	return master.WaitContext(ctx)
}

// RunMPWorker runs the paper's slave program (§3.1: probe load, request
// with A_i and piggy-backed results, compute) on a non-zero rank: the
// rpc runtime's slave loop over mp.Stream, until the master stops it.
func RunMPWorker(c Comm, opts MPWorkerOptions) error {
	if c.Rank() == 0 {
		return fmt.Errorf("loopsched: rank 0 is the mp master")
	}
	w := exec.Worker{
		ID:           c.Rank() - 1,
		Kernel:       opts.Kernel,
		VirtualPower: opts.VirtualPower,
		LoadProbe:    opts.LoadProbe,
		ACPModel:     opts.ACP,
		WorkScale:    opts.WorkScale,
	}
	return runOverStream(context.Background(), w, callerOwned{mp.Stream(c, 0)})
}

// runOverStream is w's whole dialogue, as wire frames over rwc.
func runOverStream(ctx context.Context, w exec.Worker, rwc io.ReadWriteCloser) error {
	link, err := wire.NewClient(rwc)
	if err != nil {
		return err
	}
	return w.RunLink(ctx, link)
}

// callerOwned is a stream over a Comm the caller passed in: the end of a
// dialogue must not close the endpoint under the others, or the next run.
type callerOwned struct{ io.ReadWriter }

func (callerOwned) Close() error { return nil }

// serveRanks answers every slave rank of c from master, one dialogue
// per rank, and returns the function that joins them: a dialogue ends on
// the Stop that answers the rank's last request, or when c is closed.
func serveRanks(master *exec.Master, c Comm) (join func()) {
	var wg sync.WaitGroup
	for r := 1; r < c.Size(); r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			master.ServeConn(callerOwned{mp.Stream(c, r)})
		}()
	}
	return wg.Wait
}
