package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"loopsched"
)

// config is one invocation's load shape. Closed loop, one client: the
// harness issues runs back to back.
type config struct {
	p            int     // workers and GOMAXPROCS
	seed         int64   // workload seed
	seconds      float64 // measuring time of a workload's untraced pass
	minRounds    int     // repetitions every cell gets at least
	setups       int     // times set-up is repeated; the median is reported
	trace        bool    // also run the traced pass
	traceSeconds float64 // measuring time of a workload's traced pass
	tiny         bool    // smoke-test sizes
	traceDir     string
}

// minTracedReps is how often every cell is repeated at least in the
// traced pass.
const minTracedReps = 3

// traceRing sizes the traced session's event ring so that no event of
// a fine_* repetition is dropped and the budget's counts are exact.
const traceRing = 1 << 18

// A closed TCP connection keeps its port in TIME_WAIT for 60 s, and
// once some 14 000 of them hold the even half of the ephemeral range
// connect() turns into a scan: on small_loops, where every loop of
// every rpc cell dials afresh, the rpc cells' T_p doubled two thirds
// into a run and stayed doubled for the runs that followed. The paths
// that dial are therefore held to connRate connections per second of
// process lifetime (about 10 000 in TIME_WAIT when runs follow one
// another); in a round the budget does not cover, the dialling
// cells sit out while the other cells carry on.
const (
	connRate  = 160.0 // connections per second, averaged since process start
	connBurst = 320.0 // head start, one small_loops round of the rpc cells
	turnS     = 0.030 // a cheap cell repeats within its turn for this long...
	turnReps  = 8     // ...but at most this often
)

var processStart = time.Now()

// connBudget counts the connections the harness has caused.
type connBudget struct {
	used      float64
	unlimited bool // smoke tests: a few hundred connections in all
}

var dialled connBudget

// take books n connections if the rate allows it now. With wait set it
// sleeps until the rate allows it instead of refusing.
func (b *connBudget) take(n int, wait bool) bool {
	if n > 0 && !b.unlimited {
		ahead := b.used + float64(n) - connBurst - connRate*time.Since(processStart).Seconds()
		if ahead > 0 {
			if !wait {
				return false
			}
			time.Sleep(time.Duration(ahead / connRate * float64(time.Second)))
		}
		b.used += float64(n)
	}
	return true
}

// instance is a set-up workload: generated loops with their serial
// reference, and the warm fleet.
type instance struct {
	w       workload
	loops   []*loop
	fleet   *fleet
	serialS float64
}

func (in *instance) close() { in.fleet.close() }

// workloadResult is everything one workload reports.
type workloadResult struct {
	Name         string            `json:"name"`
	Seed         int64             `json:"seed"`
	OpsAttempted int               `json:"ops_attempted"`
	OpsFailed    int               `json:"ops_failed"`
	Failures     []string          `json:"failures,omitempty"`
	Rounds       int               `json:"rounds"`
	EndToEnd     map[string]metric `json:"end_to_end"`
	PerLayer     map[string]metric `json:"per_layer,omitempty"`
}

// op books one repetition of n loop runs: an op is one loop run, and a
// repetition that fails verification fails all of its runs.
func (r *workloadResult) op(err error, what string, n int) {
	r.OpsAttempted += n
	if err != nil {
		r.OpsFailed += n
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, what+": "+err.Error())
		}
	}
}

// setUp generates the inputs, runs the serial reference, starts the
// fleet and warms every cell with one run — of one loop only, so that
// the repeated set-ups of small_loops do not spend a quarter of the
// run's connection budget, and of the shortest, whose length the seed
// does not change (it shuffles the order). It is what setup_s times.
func setUp(ctx context.Context, w workload, cfg config, res *workloadResult) (*instance, error) {
	in := &instance{w: w, loops: w.gen(cfg.seed, cfg.tiny)}
	for _, l := range in.loops {
		in.serialS += l.serial()
	}
	f, err := startFleet(w, cfg.p, nil)
	if err != nil {
		return nil, err
	}
	in.fleet = f
	shortest := in.loops[0]
	for _, l := range in.loops {
		if l.n < shortest.n {
			shortest = l
		}
	}
	warm := &instance{w: w, loops: []*loop{shortest}, fleet: f}
	for _, r := range runtimes {
		dialled.used += float64(warm.conns(r, cfg.p)) // booked, never waited for: set-up is timed
		rr, _ := warm.rep(ctx, r)
		res.op(rr.check(f, warm.loops), "warm-up "+r.name, len(warm.loops))
	}
	return in, nil
}

// bodySeconds is the summed body time of the run just finished, or 0
// when the bodies have not been priced.
func (in *instance) bodySeconds() float64 {
	s := 0.0
	for _, l := range in.loops {
		if l.bodyS != nil {
			s += l.bodySeconds(0, l.n)
		}
	}
	return s
}

// conns is how many TCP connections one repetition of the cell opens.
func (in *instance) conns(r runtimePath, p int) int {
	return r.conns(p) * len(in.loops)
}

// prepare puts the harness in a clean state for one repetition:
// per-run state cleared and the previous cell's garbage collected, so
// no cell pays for its neighbour.
func (in *instance) prepare() {
	for _, l := range in.loops {
		l.reset()
	}
	runtime.GC()
}

// rep runs one untraced repetition of a cell and returns what the
// caller saw plus the heap allocations made meanwhile.
func (in *instance) rep(ctx context.Context, r runtimePath) (runResult, float64) {
	in.prepare()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rr := r.run(ctx, in.fleet, in.loops, nil, nil)
	runtime.ReadMemStats(&m1)
	return rr, float64(m1.Mallocs - m0.Mallocs)
}

// cellSamples collects what the untraced repetitions of one cell show.
type cellSamples struct {
	attempts                                                                int
	tp, chunks, nonbody, commFrac, waitFrac, allocsPerChunk, stealsPerChunk []float64
}

// add files one verified repetition. body is the run's summed body
// seconds (0 when bodies were not priced).
func (c *cellSamples) add(rr runResult, mallocs, body, p float64) {
	c.tp = append(c.tp, rr.tp)
	chunks := float64(rr.chunks())
	c.chunks = append(c.chunks, chunks)
	c.nonbody = append(c.nonbody, p*rr.tp-body)
	var comm, wait, steals float64
	for _, rep := range rr.reports {
		steals += float64(rep.Steals)
		for _, t := range rep.PerWorker {
			comm += t.Comm
			wait += t.Wait + t.Idle
		}
	}
	c.commFrac = append(c.commFrac, comm/(p*rr.tp))
	c.waitFrac = append(c.waitFrac, wait/(p*rr.tp))
	if chunks > 0 {
		c.allocsPerChunk = append(c.allocsPerChunk, mallocs/chunks)
		c.stealsPerChunk = append(c.stealsPerChunk, steals/chunks)
	}
}

// measureWorkload runs one workload: set-up (repeated), the untraced
// pass, and — with cfg.trace — the traced pass and the derived layer
// metrics. probes are the suite-level layer probes (nil without
// trace).
func measureWorkload(ctx context.Context, w workload, cfg config, head header, probes map[string]metric) (*workloadResult, error) {
	res := &workloadResult{Name: w.name, Seed: cfg.seed, EndToEnd: map[string]metric{}}

	var in *instance
	var setupS, serialS []float64
	// A set-up that takes milliseconds is repeated until a second has
	// gone into it, so that its median is as steady as a slow one's.
	setupStart := time.Now()
	for i := 0; i < cfg.setups || cfg.setups > 1 && i < 3*cfg.setups && time.Since(setupStart).Seconds() < 1; i++ {
		if in != nil {
			in.close()
		}
		t0 := time.Now()
		var err error
		if in, err = setUp(ctx, w, cfg, res); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		serialS = append(serialS, in.serialS)
	}
	defer in.close()
	setup := timing(setupS, "s", 1)
	setup.Value = setup.Median // few samples, and the contract asks for the median
	res.EndToEnd["setup_s"] = setup

	// The traced pass's session holds a 19 MB event ring. It is
	// allocated before the untraced pass so that both passes run over
	// the same live heap and the collector paces them alike; otherwise
	// the traced repetitions of the allocating paths come out faster
	// than the untraced ones and telemetry's cost reads negative.
	var tel *loopsched.Telemetry
	if cfg.trace {
		for _, l := range in.loops {
			l.timeBodies()
		}
		var err error
		if tel, err = loopsched.NewTelemetry(loopsched.TelemetryOptions{BufferSize: traceRing}); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		defer tel.Close() // the session only feeds in-memory subscribers
	}

	// Untraced pass: repetitions interleaved round-robin across the
	// cells so machine drift is shared.
	cells := make([]cellSamples, len(runtimes))
	p := float64(cfg.p)
	start := time.Now()
	for {
		// The dialling cells share the connection budget round by
		// round: either all of them still in the race run once, or none.
		over := time.Since(start).Seconds() >= cfg.seconds
		racing := func(c *cellSamples) bool { return !over || c.attempts < cfg.minRounds }
		dialCost := 0
		for ci, r := range runtimes {
			if racing(&cells[ci]) {
				dialCost += in.conns(r, cfg.p)
			}
		}
		dial := dialCost > 0 && dialled.take(dialCost, over)
		ran := false
		for ci, r := range runtimes {
			c := &cells[ci]
			dials := in.conns(r, cfg.p) > 0
			if !racing(c) || dials && !dial {
				continue
			}
			turn := time.Now()
			for k := 0; k == 0 || !dials && k < turnReps && time.Since(turn).Seconds() < turnS; k++ {
				ran = true
				c.attempts++
				rr, mallocs := in.rep(ctx, r)
				err := rr.check(in.fleet, in.loops)
				res.op(err, r.name, len(in.loops))
				if err == nil {
					c.add(rr, mallocs, in.bodySeconds(), p)
				}
			}
		}
		if over && !ran {
			break
		}
		res.Rounds++
	}
	for ci, r := range runtimes {
		if len(cells[ci].tp) == 0 {
			return res, fmt.Errorf("%s/%s: no repetition passed verification: %v", w.name, r.name, res.Failures)
		}
		res.EndToEnd["tp_s."+r.name] = timing(cells[ci].tp, "s", w.fastShare)
	}
	if !cfg.trace {
		return res, nil
	}

	// Layer metrics: probes, the untraced cells' report-derived
	// figures, and the traced pass.
	res.PerLayer = make(map[string]metric, len(probes)+len(runtimes)*9)
	for k, v := range probes {
		res.PerLayer[k] = v
	}
	serial := sorted(serialS)[0] // the fastest: the first follows an idle machine
	res.PerLayer["serial_s"] = metric{Value: serial, Unit: "s"}
	powerSum := 0.0
	for _, s := range in.fleet.scales {
		powerSum += 1 / float64(s)
	}
	for ci, r := range runtimes {
		c := cells[ci]
		tp := res.EndToEnd["tp_s."+r.name].Value
		res.PerLayer["eff."+r.name] = metric{Value: serial / (tp * powerSum), Unit: "ratio"}
		res.PerLayer["chunks."+r.name] = level(c.chunks, "count")
		res.PerLayer["comm_frac."+r.name] = level(c.commFrac, "ratio")
		res.PerLayer["wait_frac."+r.name] = level(c.waitFrac, "ratio")
		res.PerLayer["allocs_per_chunk."+r.name] = level(c.allocsPerChunk, "count")
		if r.name == "local_steal" {
			res.PerLayer["steal.steals_per_chunk.local_steal"] = level(c.stealsPerChunk, "ratio")
		}
	}
	if err := tracedPass(ctx, in, tel, cells, cfg, head, res); err != nil {
		return res, err
	}
	return res, nil
}

// tracedPass repeats every cell with the telemetry session attached
// and records the span tree. Its T_p against the untraced pass is
// telemetry's own cost.
func tracedPass(ctx context.Context, in *instance, tel *loopsched.Telemetry, cells []cellSamples, cfg config, head header, res *workloadResult) error {
	bus := tel.Bus()
	rec := &chunkRecorder{}
	bus.Subscribe(rec)

	// The service path's telemetry is fixed when its fleet starts, so
	// the traced pass runs on a second fleet attached to the session.
	tf, err := startFleet(in.w, cfg.p, tel)
	if err != nil {
		return err
	}
	defer tf.close()
	traced := &instance{w: in.w, loops: in.loops, fleet: tf}

	suiteStart := time.Now()
	tr := &tracer{clock: func() float64 { return time.Since(suiteStart).Seconds() }}
	// Chunk events carry bus-clock instants; offset moves them onto the
	// tracer's clock.
	offset := tr.clock() - bus.Now()
	root := tr.begin(nil, "suite")
	root.Attrs = map[string]any{"ring": traceRing}
	wl := tr.begin(root, in.w.name)
	cellSpans := make([]*span, len(runtimes))
	for ci, r := range runtimes {
		cellSpans[ci] = tr.begin(wl, r.name)
	}

	type tracedCell struct {
		tp, imbalance, refills, fetches, frames, bytes []float64
		counts                                         map[string]uint64 // last repetition's events
	}
	tcells := make([]tracedCell, len(runtimes))
	p := cfg.p
	var dropped uint64
	start := time.Now()
	for rep := 0; rep < minTracedReps || time.Since(start).Seconds() < cfg.traceSeconds; rep++ {
		dialCost := 0
		for _, r := range runtimes {
			dialCost += traced.conns(r, p)
		}
		dial := dialled.take(dialCost, rep < minTracedReps)
		for ci, r := range runtimes {
			tc := &tcells[ci]
			if traced.conns(r, p) > 0 && !dial {
				continue
			}
			repSpan := tr.begin(cellSpans[ci], "rep")

			sp := tr.begin(repSpan, "setup")
			traced.prepare()
			rec.loop.Store(0)
			bus.Flush()
			before := eventCounts(tel.Aggregator().Snapshot())
			tr.end(sp)

			runSpan := tr.begin(repSpan, "run")
			rr := r.run(ctx, tf, traced.loops, tel, func(j int) { rec.loop.Store(int64(j)) })
			runSpan.End = tr.clock()
			bus.Flush()

			sp = tr.begin(repSpan, "verify")
			err := rr.check(tf, traced.loops)
			res.op(err, "traced "+r.name, len(traced.loops))
			tr.end(sp)

			counts := countsDelta(eventCounts(tel.Aggregator().Snapshot()), before)
			dropped += counts["dropped"]
			chunks := rec.take(rr.jobs, traced.loops, offset)
			body, covered := perWorker(chunks, p)
			runSpan.covered = mean(covered)
			runSpan.ChunkCount = len(chunks)
			runSpan.Counts = counts
			runSpan.Attrs = map[string]any{"tp_s": rr.tp, "report_chunks": rr.chunks()}
			if len(tc.tp) == 0 {
				runSpan.Chunks = chunks
			}
			tr.end(runSpan)
			tr.end(repSpan)
			if err != nil {
				continue
			}
			tc.tp = append(tc.tp, rr.tp)
			tc.imbalance = append(tc.imbalance, imbalance(body))
			tc.counts = counts
			if nchunks := float64(rr.chunks()); nchunks > 0 {
				tc.refills = append(tc.refills, float64(counts["deque_refilled"])/nchunks)
				tc.fetches = append(tc.fetches, float64(counts["ledger_fetch"])/nchunks)
				tc.frames = append(tc.frames, float64(counts["wire_frames_sent"])/nchunks)
				tc.bytes = append(tc.bytes, float64(counts["wire_bytes_sent"])/nchunks)
			}
		}
	}
	for _, cs := range cellSpans {
		tr.end(cs)
	}
	tr.end(wl)
	tr.end(root)

	for ci, r := range runtimes {
		tc := tcells[ci]
		if len(tc.tp) == 0 {
			return fmt.Errorf("%s/%s: no traced repetition passed verification: %v", in.w.name, r.name, res.Failures)
		}
		tp := res.EndToEnd["tp_s."+r.name].Value
		chunks := res.PerLayer["chunks."+r.name].Value
		nonbody := median(cells[ci].nonbody)
		res.PerLayer["telemetry_cost_frac."+r.name] = metric{Value: (fastMean(tc.tp, in.w.fastShare) - tp) / tp, Unit: "ratio", N: len(tc.tp)}
		res.PerLayer["imbalance."+r.name] = level(tc.imbalance, "ratio")
		res.PerLayer["nonbody_us_per_chunk."+r.name] = metric{Value: nonbody * 1e6 / chunks, Unit: "us"}
		explained := budget(in.w, r, res.PerLayer, tc.counts, chunks, len(in.loops), p)
		frac := 0.0
		if nonbody > 0 {
			frac = explained / nonbody
		}
		res.PerLayer["budget_explained_frac."+r.name] = metric{Value: frac, Unit: "ratio"}
		switch r.name {
		case "local_steal":
			res.PerLayer["steal.refills_per_chunk.local_steal"] = level(tc.refills, "ratio")
		case "rpc_ledger":
			res.PerLayer["ledger.fetchadds_per_chunk.rpc_ledger"] = level(tc.fetches, "ratio")
		}
		switch r.name {
		case "rpc_binary", "rpc_ledger", "hier_rpc":
			res.PerLayer["wire.frames_per_chunk."+r.name] = level(tc.frames, "ratio")
			res.PerLayer["wire.bytes_per_chunk."+r.name] = level(tc.bytes, "B")
		}
	}
	res.PerLayer["telemetry.dropped_events"] = metric{Value: float64(dropped), Unit: "count"}

	path, err := tr.write(cfg.traceDir, in.w.name, head)
	if err != nil {
		return fmt.Errorf("writing the trace: %w", err)
	}
	fmt.Printf("# trace written to %s (%d spans)\n", path, len(tr.spans))
	return nil
}

// budget is the part of a runtime's non-body worker-seconds the layer
// probes account for: probe cost × event count along that runtime's
// path. counts are one traced repetition's telemetry events; chunks is
// the untraced chunk count; every loop pays the path's fixed cost on
// each of the p workers. README.md writes the formulas out.
func budget(w workload, r runtimePath, layer map[string]metric, counts map[string]uint64, chunks float64, loops, p int) float64 {
	ns := func(name string) float64 { return layer[name].Value * 1e-9 }
	n := func(kind string) float64 { return float64(counts[kind]) }
	next := ns("sched.next_ns." + w.nextProbe)
	fixed := float64(loops*p) * layer["run_fixed_ms."+r.name].Value * 1e-3
	frames, fetches := n("wire_frames_sent"), n("ledger_fetch")
	switch r.name {
	case "local_channel":
		return fixed + chunks*next
	case "local_steal", "service":
		return fixed + chunks*ns("exec.refill_ns") + n("chunk_stolen")*ns("steal.steal_ns")
	case "rpc_binary", "hier_rpc", "rpc_ledger":
		if fetches == 0 { // the master path, or the ledger fallen back to it
			return fixed + frames/2*ns("wire.call_tcp_ns") + chunks*next
		}
		deposits := frames - 2*fetches // one-way completion frames
		return fixed + fetches*ns("wire.fetchadd_tcp_ns") + deposits/2*ns("wire.call_tcp_ns") +
			chunks*ns("ledger.claim_ns") + float64(loops)*layer["ledger.build_us"].Value*1e-6
	case "rpc_gob":
		return fixed + n("chunk_requested")*ns("netrpc.call_tcp_ns") + chunks*next
	case "mp":
		return fixed + n("chunk_requested")*ns("mp.roundtrip_ns") + chunks*next
	}
	return 0
}
