package telemetry

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"sync"
)

// Flight-recorder defaults: ring capacity, EWMA smoothing, and the
// straggler threshold multiplier (a worker is flagged when its EWMA
// chunk latency exceeds StragglerK times the fleet median).
const (
	DefaultFlightRing = 256
	flightEWMAAlpha   = 0.2
	StragglerK        = 3.0
)

// FlightSample is one completion observation kept in the recorder's
// ring: which worker finished a run of chunks, when, how long a chunk of
// it took (the run's seconds over its chunks), and the worker's smoothed
// latency at that instant.
type FlightSample struct {
	At      float64 `json:"at"`
	Worker  int     `json:"worker"`
	Seconds float64 `json:"seconds"`
	EWMA    float64 `json:"ewma"`
}

// FlightWorker is one worker's row in a flight-recorder snapshot.
type FlightWorker struct {
	Worker     int     `json:"worker"`
	Chunks     uint64  `json:"chunks"`
	Busy       float64 `json:"busy_seconds"`
	EWMA       float64 `json:"ewma_seconds"`
	LastFinish float64 `json:"last_finish"`
	Straggler  bool    `json:"straggler"`
}

// FlightSnapshot is the recorder's JSON dump: the paper's load-balance
// metrics over the current (or just-finished) run, the per-worker
// rows they derive from, and the ring of recent completion samples.
type FlightSnapshot struct {
	Scheme   string `json:"scheme,omitempty"`
	Workload string `json:"workload,omitempty"`
	Backend  string `json:"backend,omitempty"`

	Workers []FlightWorker `json:"workers"`

	// MaxBusy and MeanBusy are the paper's T_max and mean worker busy
	// time; their ratio is the classic load-imbalance factor.
	MaxBusy  float64 `json:"max_busy_seconds"`
	MeanBusy float64 `json:"mean_busy_seconds"`
	// CV is the coefficient of variation of per-worker busy time
	// (σ/mean), the imbalance metric the adaptive schemes minimise.
	CV float64 `json:"busy_cv"`
	// TailIdleFrac is the fraction of fleet time idled at the end of
	// the run: Σ_i (T_end − finish_i) / (p · (T_end − T_start)).
	TailIdleFrac float64 `json:"tail_idle_frac"`

	Stragglers uint64         `json:"stragglers"`
	Samples    []FlightSample `json:"samples"`
}

// flightWorker is the recorder's mutable per-worker state.
type flightWorker struct {
	chunks     uint64
	busy       float64
	ewma       float64
	lastFinish float64
	straggler  bool
}

// FlightRecorder is a bus subscriber that computes the paper's
// load-balance metrics live from completion events: per-worker busy
// time, max/mean busy, coefficient of variation, and tail-idle
// fraction, plus an EWMA straggler detector that publishes a
// StragglerDetected event when a worker's smoothed chunk latency
// exceeds k times the fleet median. It keeps a bounded ring of recent
// completion samples and is dumpable as JSON at any moment via
// Snapshot / WriteJSON (the /debug/flightrecorder endpoint) — and the
// finished run's final state stays readable via LastRun.
type FlightRecorder struct {
	bus  *Bus // for publishing straggler events; may be nil
	k    float64
	ring int

	mu         sync.Mutex
	meta       RunMeta
	runStart   float64
	workers    map[int]*flightWorker
	samples    []FlightSample
	next       int // ring write cursor
	filled     bool
	stragglers uint64
	lastRun    *FlightSnapshot
	scratch    []float64 // median scratch, reused
}

// NewFlightRecorder creates a recorder with the given sample-ring
// capacity (DefaultFlightRing when <= 0). bus, if non-nil, receives
// StragglerDetected events; the recorder itself ignores them on
// redelivery, so feeding a recorder from the bus it publishes to is
// safe.
func NewFlightRecorder(bus *Bus, ringSize int) *FlightRecorder {
	if ringSize <= 0 {
		ringSize = DefaultFlightRing
	}
	return &FlightRecorder{
		bus:     bus,
		k:       StragglerK,
		ring:    ringSize,
		workers: make(map[int]*flightWorker),
	}
}

// BeginRun resets the recorder for a new run.
func (f *FlightRecorder) BeginRun(m RunMeta) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.meta = m
	f.runStart = 0
	f.workers = make(map[int]*flightWorker)
	f.samples = nil
	f.next = 0
	f.filled = false
	f.stragglers = 0
}

// OnEvent consumes completion events; everything else is cheap to
// skip. Called from the bus's single drainer goroutine.
func (f *FlightRecorder) OnEvent(e Event) {
	switch e.Kind {
	case RunStarted:
		f.mu.Lock()
		f.runStart = e.At
		f.mu.Unlock()
	case ChunkCompleted:
		f.observe(e)
	case RunFinished:
		f.mu.Lock()
		snap := f.snapshotLocked()
		f.lastRun = &snap
		f.mu.Unlock()
	}
}

// observe folds one completion — a run of chunks — into the per-worker
// state, appends it to the ring, and runs the straggler detector. The
// EWMA and the sample read a chunk's latency: the run's seconds over its
// chunks.
func (f *FlightRecorder) observe(e Event) {
	per := e.Seconds / float64(e.Chunks())
	f.mu.Lock()
	w := f.workers[e.Worker]
	if w == nil {
		w = &flightWorker{ewma: per}
		f.workers[e.Worker] = w
	}
	w.chunks += uint64(e.Chunks())
	w.busy += e.Seconds
	w.ewma = flightEWMAAlpha*per + (1-flightEWMAAlpha)*w.ewma
	if e.At > w.lastFinish {
		w.lastFinish = e.At
	}

	if f.samples == nil {
		f.samples = make([]FlightSample, f.ring)
	}
	f.samples[f.next] = FlightSample{At: e.At, Worker: e.Worker, Seconds: per, EWMA: w.ewma}
	f.next++
	if f.next == len(f.samples) {
		f.next = 0
		f.filled = true
	}

	// Straggler detection against the fleet median EWMA. The flag is
	// edge-triggered: one event when the worker crosses the threshold,
	// re-armed once it drops back under.
	var fire bool
	if len(f.workers) >= 2 {
		f.scratch = f.scratch[:0]
		for _, o := range f.workers {
			f.scratch = append(f.scratch, o.ewma)
		}
		sort.Float64s(f.scratch)
		median := f.scratch[len(f.scratch)/2]
		if median > 0 && w.ewma > f.k*median {
			if !w.straggler {
				w.straggler = true
				f.stragglers++
				fire = true
			}
		} else {
			w.straggler = false
		}
	}
	ewma := w.ewma
	f.mu.Unlock()

	if fire {
		f.bus.Publish(Event{
			Kind: StragglerDetected, Worker: e.Worker, Shard: e.Shard,
			Job: e.Job, Tenant: e.Tenant, At: e.At, Seconds: ewma,
		})
	}
}

// Close releases nothing; the recorder keeps its last state readable.
func (f *FlightRecorder) Close() error { return nil }

// Stragglers reports how many straggler detections fired this run.
func (f *FlightRecorder) Stragglers() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stragglers
}

// Snapshot dumps the recorder's current state.
func (f *FlightRecorder) Snapshot() FlightSnapshot {
	if f == nil {
		return FlightSnapshot{Workers: []FlightWorker{}, Samples: []FlightSample{}}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.snapshotLocked()
}

// LastRun returns the snapshot captured when the run finished, or nil
// if no run has finished since the recorder (re)started.
func (f *FlightRecorder) LastRun() *FlightSnapshot {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.lastRun == nil {
		return nil
	}
	snap := *f.lastRun
	return &snap
}

// snapshotLocked builds the dump; callers hold f.mu.
func (f *FlightRecorder) snapshotLocked() FlightSnapshot {
	snap := FlightSnapshot{
		Scheme:     f.meta.Scheme,
		Workload:   f.meta.Workload,
		Backend:    f.meta.Backend,
		Workers:    make([]FlightWorker, 0, len(f.workers)),
		Samples:    make([]FlightSample, 0, f.ringLenLocked()),
		Stragglers: f.stragglers,
	}
	var tEnd float64
	for id, w := range f.workers {
		snap.Workers = append(snap.Workers, FlightWorker{
			Worker: id, Chunks: w.chunks, Busy: w.busy,
			EWMA: w.ewma, LastFinish: w.lastFinish, Straggler: w.straggler,
		})
		if w.lastFinish > tEnd {
			tEnd = w.lastFinish
		}
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].Worker < snap.Workers[j].Worker })

	p := len(snap.Workers)
	if p > 0 {
		var sum, max, idle float64
		for _, w := range snap.Workers {
			sum += w.Busy
			if w.Busy > max {
				max = w.Busy
			}
			idle += tEnd - w.LastFinish
		}
		mean := sum / float64(p)
		snap.MaxBusy, snap.MeanBusy = max, mean
		if mean > 0 {
			var ss float64
			for _, w := range snap.Workers {
				d := w.Busy - mean
				ss += d * d
			}
			snap.CV = math.Sqrt(ss/float64(p)) / mean
		}
		if span := tEnd - f.runStart; span > 0 {
			snap.TailIdleFrac = idle / (float64(p) * span)
		}
	}

	// Ring in chronological order: oldest first.
	if f.filled {
		snap.Samples = append(snap.Samples, f.samples[f.next:]...)
	}
	snap.Samples = append(snap.Samples, f.samples[:f.next]...)
	return snap
}

// ringLenLocked is the number of valid samples; callers hold f.mu.
func (f *FlightRecorder) ringLenLocked() int {
	if f.filled {
		return len(f.samples)
	}
	return f.next
}

// WriteJSON dumps the current snapshot as indented JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(f.Snapshot())
}
