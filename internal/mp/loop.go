package mp

import (
	"context"
	"encoding/binary"
	"fmt"
	"time"

	"loopsched/internal/acp"
	"loopsched/internal/dispense"
	"loopsched/internal/metrics"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
)

// This file is the paper's master/slave program (§3.1's pseudocode)
// written against the Comm interface, so the same code runs over the
// in-process world or real TCP — like the original ran over mpich.
//
// Protocol: a slave sends tagRequest carrying its ACP and the
// piggy-backed results of its previous chunk (§5); the master answers
// tagAssign with an iteration interval, or tagStop. The master
// re-plans when a majority of reported ACPs changed (step 2(c)).
const (
	tagRequest = 1
	tagAssign  = 2
	tagStop    = 3
)

// encodeRequest packs ACP, the previous chunk's computation time (in
// nanoseconds, for the master's per-PE breakdown; 0 means "no chunk to
// report", so a worker reports a real completion as at least 1) and
// piggy-backed results.
func encodeRequest(acp int, compNanos int64, results []resultEntry) []byte {
	n := 12
	for _, r := range results {
		n += 8 + len(r.data)
	}
	buf := make([]byte, 0, n)
	buf = binary.BigEndian.AppendUint32(buf, uint32(int32(acp)))
	buf = binary.BigEndian.AppendUint64(buf, uint64(compNanos))
	for _, r := range results {
		buf = binary.BigEndian.AppendUint32(buf, uint32(int32(r.index)))
		buf = binary.BigEndian.AppendUint32(buf, uint32(len(r.data)))
		buf = append(buf, r.data...)
	}
	return buf
}

type resultEntry struct {
	index int
	data  []byte
}

func decodeRequest(data []byte) (acpVal int, compNanos int64, results []resultEntry, err error) {
	if len(data) < 12 {
		return 0, 0, nil, fmt.Errorf("mp: short request (%d bytes)", len(data))
	}
	acpVal = int(int32(binary.BigEndian.Uint32(data[0:4])))
	compNanos = int64(binary.BigEndian.Uint64(data[4:12]))
	rest := data[12:]
	for len(rest) > 0 {
		if len(rest) < 8 {
			return 0, 0, nil, fmt.Errorf("mp: truncated result header")
		}
		idx := int(int32(binary.BigEndian.Uint32(rest[0:4])))
		n := int(binary.BigEndian.Uint32(rest[4:8]))
		rest = rest[8:]
		if n > len(rest) {
			return 0, 0, nil, fmt.Errorf("mp: truncated result payload")
		}
		results = append(results, resultEntry{index: idx, data: rest[:n:n]})
		rest = rest[n:]
	}
	return acpVal, compNanos, results, nil
}

func encodeAssign(a sched.Assignment) []byte {
	var buf [8]byte
	binary.BigEndian.PutUint32(buf[0:4], uint32(int32(a.Start)))
	binary.BigEndian.PutUint32(buf[4:8], uint32(int32(a.Size)))
	return buf[:]
}

func decodeAssign(data []byte) (sched.Assignment, error) {
	if len(data) != 8 {
		return sched.Assignment{}, fmt.Errorf("mp: bad assignment frame (%d bytes)", len(data))
	}
	return sched.Assignment{
		Start: int(int32(binary.BigEndian.Uint32(data[0:4]))),
		Size:  int(int32(binary.BigEndian.Uint32(data[4:8]))),
	}, nil
}

// MasterOptions tune RunMaster.
type MasterOptions struct {
	// DisableReplan turns off the step-2(c) majority re-plan.
	DisableReplan bool
	// Powers are the slaves' static virtual powers (index rank−1), which
	// the static-weight schemes (WF, WS) split by; nil weighs them
	// equally.
	Powers []float64
	// Telemetry, when non-nil, receives live protocol events. Workers
	// are identified by rank−1 (matching Report.PerWorker indexing).
	// Completion events are emitted when a slave's timing report
	// arrives piggy-backed on its next request — for its last chunk,
	// the request that is answered with stop — so only a cancelled run
	// leaves chunks without a completion event.
	Telemetry *telemetry.Bus
}

// RunMaster schedules `iterations` loop iterations over the
// communicator's size−1 slaves and collects their results (indexed by
// iteration). It returns when every slave has been stopped.
func RunMaster(c Comm, scheme sched.Scheme, iterations int, opts MasterOptions) ([][]byte, metrics.Report, error) {
	return RunMasterContext(context.Background(), c, scheme, iterations, opts)
}

// RunMasterContext is RunMaster with cancellation. When ctx ends the
// master stops handing out work, sends tagStop to every slave it has
// not already stopped — so their loops terminate instead of blocking
// on a reply that will never come — and returns ctx's error alongside
// whatever results arrived. With the built-in transports a blocked
// Recv is woken immediately (via an injected sentinel); a foreign Comm
// implementation is only checked between messages.
func RunMasterContext(ctx context.Context, c Comm, scheme sched.Scheme, iterations int, opts MasterOptions) ([][]byte, metrics.Report, error) {
	if c.Rank() != 0 {
		return nil, metrics.Report{}, fmt.Errorf("mp: master must be rank 0, not %d", c.Rank())
	}
	workers := c.Size() - 1
	if workers < 1 {
		return nil, metrics.Report{}, fmt.Errorf("mp: no slaves in a world of %d", c.Size())
	}
	results := make([][]byte, iterations)
	rep := metrics.Report{Scheme: scheme.Name(), Workers: workers, Iterations: iterations}

	stoppedSet := make([]bool, workers+1) // indexed by rank
	cancelled := func() ([][]byte, metrics.Report, error) {
		for r := 1; r <= workers; r++ {
			if !stoppedSet[r] {
				_ = c.Send(r, tagStop, nil) // best effort; the TCP star holds it for a rank still dialling
			}
		}
		return results, rep, ctx.Err()
	}
	if ctx.Done() != nil {
		if inj, ok := c.(injector); ok {
			quit := make(chan struct{})
			defer close(quit)
			go func() {
				select {
				case <-ctx.Done():
					_ = inj.inject(Message{From: wakeSource, Tag: tagRequest})
				case <-quit:
				}
			}()
		}
	}

	d := dispense.New(dispense.Config{
		Scheme: scheme, Workers: workers, Powers: opts.Powers, NoReplan: opts.DisableReplan,
	})

	perWorker := make([]metrics.Times, workers)
	got := make([]bool, iterations)
	received := 0
	store := func(entries []resultEntry) error {
		for _, r := range entries {
			if r.index < 0 || r.index >= iterations {
				return fmt.Errorf("mp: result index %d out of range", r.index)
			}
			if !got[r.index] {
				got[r.index] = true
				received++
			}
			results[r.index] = r.data
		}
		return nil
	}

	type pending struct {
		worker int
		acp    int
		at     float64 // arrival instant on the telemetry clock
	}
	var queue []pending
	bus := opts.Telemetry
	joined := make([]bool, workers+1)                 // indexed by rank
	lastAssign := make([]sched.Assignment, workers+1) // chunk awaiting its timing report
	// arrived notes a request's protocol events and returns its arrival
	// instant for the grant-latency measurement.
	arrived := func(rank, acpVal int, compNanos int64) float64 {
		at := bus.Now()
		if !joined[rank] {
			joined[rank] = true
			bus.Publish(telemetry.Event{
				Kind: telemetry.WorkerJoined, Worker: rank - 1,
				ACP: acpVal, At: at,
			})
		}
		if compNanos > 0 && lastAssign[rank].Size > 0 {
			bus.Publish(telemetry.Event{
				Kind: telemetry.ChunkCompleted, Worker: rank - 1,
				Start: lastAssign[rank].Start, Size: lastAssign[rank].Size,
				ACP: acpVal, At: at, Seconds: float64(compNanos) / 1e9,
			})
			lastAssign[rank] = sched.Assignment{}
		}
		bus.Publish(telemetry.Event{
			Kind: telemetry.ChunkRequested, Worker: rank - 1,
			ACP: acpVal, At: at,
		})
		return at
	}

	// Step 1(a): a distributed master waits for every slave's first
	// report before planning.
	if sched.Distributed(scheme) {
		for !d.Gathered() {
			msg, err := c.Recv(AnySource, tagRequest)
			if err != nil {
				return nil, rep, err
			}
			if msg.From == wakeSource || ctx.Err() != nil {
				return cancelled()
			}
			a, _, entries, err := decodeRequest(msg.Data)
			if err != nil {
				return nil, rep, err
			}
			if err := store(entries); err != nil {
				return nil, rep, err
			}
			d.Report(msg.From-1, a)
			queue = append(queue, pending{worker: msg.From, acp: a, at: arrived(msg.From, a, 0)})
		}
		// Service the initial queue in decreasing-ACP order.
		for i := 0; i < len(queue); i++ {
			for j := i + 1; j < len(queue); j++ {
				if queue[j].acp > queue[i].acp {
					queue[i], queue[j] = queue[j], queue[i]
				}
			}
		}
	}

	if err := d.Stage(0, iterations); err != nil {
		return nil, rep, err
	}

	stopped := 0
	serve := func(p pending) error {
		a, ok, replanned := d.Next(p.worker-1, p.acp)
		if replanned {
			rep.Replans++
			bus.Publish(telemetry.Event{
				Kind: telemetry.StageAdvanced, Worker: p.worker - 1, At: bus.Now(),
			})
		}
		if !ok {
			stopped++
			stoppedSet[p.worker] = true
			return c.Send(p.worker, tagStop, nil)
		}
		rep.Chunks++
		lastAssign[p.worker] = a
		if bus != nil {
			now := bus.Now()
			bus.Publish(telemetry.Event{
				Kind: telemetry.ChunkGranted, Worker: p.worker - 1,
				Start: a.Start, Size: a.Size, ACP: p.acp,
				At: now, Seconds: now - p.at,
			})
		}
		return c.Send(p.worker, tagAssign, encodeAssign(a))
	}
	for _, p := range queue {
		if err := serve(p); err != nil {
			return nil, rep, err
		}
	}
	for stopped < workers {
		msg, err := c.Recv(AnySource, tagRequest)
		if err != nil {
			return nil, rep, err
		}
		if msg.From == wakeSource || ctx.Err() != nil {
			return cancelled()
		}
		a, compNanos, entries, err := decodeRequest(msg.Data)
		if err != nil {
			return nil, rep, err
		}
		if compNanos > 0 {
			perWorker[msg.From-1].Comp += float64(compNanos) / 1e9
		}
		if err := store(entries); err != nil {
			return nil, rep, err
		}
		if err := serve(pending{worker: msg.From, acp: a, at: arrived(msg.From, a, compNanos)}); err != nil {
			return nil, rep, err
		}
	}
	rep.PerWorker = perWorker
	if received != iterations {
		return results, rep, fmt.Errorf("mp: %d of %d results missing", iterations-received, iterations)
	}
	return results, rep, nil
}

// WorkerOptions describe one slave.
type WorkerOptions struct {
	// Kernel computes one iteration's result.
	Kernel func(iteration int) []byte
	// VirtualPower is V_i (0 means 1).
	VirtualPower float64
	// LoadProbe returns the current external load Q_i − 1 (nil = 0).
	LoadProbe func() int
	// ACP converts power and run-queue into the reported A_i.
	ACP acp.Model
	// WorkScale repeats the kernel to emulate a slower machine.
	WorkScale int
}

// RunWorker participates as a slave until the master sends tagStop
// (the §3.1 slave loop: probe load, request with A_i and piggy-backed
// results, compute).
func RunWorker(c Comm, opts WorkerOptions) error {
	if c.Rank() == 0 {
		return fmt.Errorf("mp: rank 0 is the master")
	}
	if opts.Kernel == nil {
		return fmt.Errorf("mp: worker needs a kernel")
	}
	power := opts.VirtualPower
	if power <= 0 {
		power = 1
	}
	scale := opts.WorkScale
	if scale < 1 {
		scale = 1
	}
	var held []resultEntry
	var compNanos int64
	for {
		load := 0
		if opts.LoadProbe != nil {
			load = opts.LoadProbe()
		}
		a := opts.ACP.ACP(power, 1+load)
		if err := c.Send(0, tagRequest, encodeRequest(a, compNanos, held)); err != nil {
			return err
		}
		held = held[:0]
		msg, err := c.Recv(0, AnyTag)
		if err != nil {
			return err
		}
		if msg.Tag == tagStop {
			return nil
		}
		assign, err := decodeAssign(msg.Data)
		if err != nil {
			return err
		}
		start := time.Now()
		for i := assign.Start; i < assign.End(); i++ {
			var data []byte
			for r := 0; r < scale; r++ {
				data = opts.Kernel(i)
			}
			held = append(held, resultEntry{index: i, data: data})
		}
		// 0 is the "nothing to report" value: a real completion, however
		// short, reports at least 1 so the master books its Comp and
		// publishes its ChunkCompleted.
		if compNanos = time.Since(start).Nanoseconds(); compNanos < 1 {
			compNanos = 1
		}
	}
}
