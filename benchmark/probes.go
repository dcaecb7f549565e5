package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/rpc"
	"runtime"
	"sync"
	"time"

	"loopsched"
	"loopsched/internal/exec"
	"loopsched/internal/ledger"
	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/steal"
	"loopsched/internal/telemetry"
	"loopsched/internal/telemetry/hist"
	"loopsched/internal/wire"
)

// Layer probes: testing.Benchmark-style loops over each package's
// exported functions, run at GOMAXPROCS=P and reported once per suite
// as the median of probeBatches batches. Contended probes run the same
// total of operations from P goroutines and report goroutine-time per
// operation (elapsed·P/ops), the figure a worker actually waits.

const (
	probeBatches = 5
	probeBatchMs = 12 // a batch is grown until it lasts at least this long
)

// probeNs times f(n), which must perform n operations, and returns the
// median nanoseconds per operation over the batches.
func probeNs(f func(n int)) float64 {
	n := 1
	for {
		t0 := time.Now()
		f(n)
		el := time.Since(t0)
		if el >= probeBatchMs*time.Millisecond || n >= 1<<24 {
			break
		}
		grow := 2.0
		if el > 0 {
			grow = 1.2 * float64(probeBatchMs*time.Millisecond) / float64(el)
		}
		if grow > 100 {
			grow = 100
		}
		if grow < 1.5 {
			grow = 1.5
		}
		n = int(float64(n)*grow) + 1
	}
	per := make([]float64, probeBatches)
	for b := range per {
		t0 := time.Now()
		f(n)
		per[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// contended splits n operations over p goroutines.
func contended(p, n int, op func(g, i int)) {
	var wg sync.WaitGroup
	for g := 0; g < p; g++ {
		share := n / p
		if g < n%p {
			share++
		}
		wg.Add(1)
		go func(g, share int) {
			defer wg.Done()
			for i := 0; i < share; i++ {
				op(g, i)
			}
		}(g, share)
	}
	wg.Wait()
}

// probeSuite runs every suite-level probe and returns name → metric.
func probeSuite(ctx context.Context, p int) (map[string]metric, error) {
	out := make(map[string]metric)
	put := func(name string, v float64, unit string) { out[name] = metric{Value: v, Unit: unit} }
	bigCfg := sched.Config{Iterations: 1 << 30, Workers: p}

	// sched: one Policy.Next per scheme the workloads use.
	for name, s := range map[string]sched.Scheme{
		"css": loopsched.NewCSS(4), "tfss": loopsched.NewTFSS(),
		"dtss": loopsched.NewDTSS(), "dcss": loopsched.NewDCSS(4),
	} {
		pol, err := s.NewPolicy(bigCfg)
		if err != nil {
			return nil, fmt.Errorf("probe sched.%s: %w", name, err)
		}
		put("sched.next_ns."+name, probeNs(func(n int) {
			for i := 0; i < n; i++ {
				if _, ok := pol.Next(sched.Request{Worker: i % p, ACP: 10}); !ok {
					pol, _ = s.NewPolicy(bigCfg)
				}
			}
		}), "ns")
	}
	{
		pol, err := loopsched.NewCSS(4).NewPolicy(bigCfg)
		if err != nil {
			return nil, err
		}
		locked := loopsched.Synchronized(pol)
		put("sched.next_locked_ns", float64(p)*probeNs(func(n int) {
			contended(p, n, func(g, _ int) { locked.Next(sched.Request{Worker: g}) })
		}), "ns")
	}

	// ledger: table build for a small FSS loop, and the claim.
	fssCfg := sched.Config{Iterations: 8192, Workers: p}
	put("ledger.build_us", probeNs(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ledger.Build(loopsched.NewFSS(), fssCfg); err != nil {
				panic(err)
			}
		}
	})/1e3, "us")
	tab, err := ledger.Build(loopsched.NewCSS(4), sched.Config{Iterations: 1 << 16, Workers: p})
	if err != nil {
		return nil, fmt.Errorf("probe ledger: %w", err)
	}
	steps := uint64(tab.Steps())
	claim := func(ctr *ledger.Local) {
		step, _ := ctr.FetchAdd(1)
		if _, ok := tab.Chunk(step % steps); !ok {
			panic("ledger probe: table lookup failed")
		}
	}
	{
		var ctr ledger.Local
		put("ledger.claim_ns", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				claim(&ctr)
			}
		}), "ns")
		put("ledger.claim_contended_ns", float64(p)*probeNs(func(n int) {
			contended(p, n, func(int, int) { claim(&ctr) })
		}), "ns")
	}

	// steal: the deque's owner path and an uncontended steal.
	{
		d := steal.NewDeque(exec.DefaultStealWindow)
		a := sched.Assignment{Start: 1, Size: 4}
		put("steal.pushpop_ns", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				d.Push(a)
				d.Pop()
			}
		}), "ns")
		put("steal.steal_ns", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				d.Push(a)
				d.Steal()
			}
		}), "ns")
	}

	// exec: the steal engine's per-chunk cycle on the policy path and
	// on the ledger path.
	for name, mode := range map[string]exec.LedgerMode{"exec.refill_ns": exec.LedgerOff, "exec.refill_ledger_ns": exec.LedgerOn} {
		v, err := probeRefill(p, mode)
		if err != nil {
			return nil, fmt.Errorf("probe %s: %w", name, err)
		}
		put(name, v, "ns")
	}

	// wire / net.
	if err := probeWire(out); err != nil {
		return nil, fmt.Errorf("probe wire: %w", err)
	}
	v, err := probeNetRPC()
	if err != nil {
		return nil, fmt.Errorf("probe netrpc: %w", err)
	}
	put("netrpc.call_tcp_ns", v, "ns")

	// mp: one request/grant round trip on an in-process world.
	if v, err = probeMP(); err != nil {
		return nil, fmt.Errorf("probe mp: %w", err)
	}
	put("mp.roundtrip_ns", v, "ns")

	// service: starting (not stopping) a fleet of P workers.
	{
		var fleets []*loopsched.Scheduler
		ns := probeNs(func(n int) {
			for i := 0; i < n; i++ {
				s, err := loopsched.NewScheduler(loopsched.SchedulerOptions{Workers: workerSpecs(workload{}.workScales(p))})
				if err != nil {
					panic(err)
				}
				fleets = append(fleets, s)
			}
		})
		for _, s := range fleets {
			_ = s.Close() // idle fleets
		}
		put("service.fleet_start_ms", ns/1e6, "ms")
	}

	// telemetry: publishing into a live session, and a histogram record.
	{
		tel, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
		if err != nil {
			return nil, fmt.Errorf("probe telemetry: %w", err)
		}
		bus := tel.Bus()
		e := telemetry.Event{Kind: telemetry.ChunkCompleted, Size: 4, Seconds: 1e-6}
		put("telemetry.publish_ns", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				bus.Publish(e)
			}
		}), "ns")
		put("telemetry.publish_contended_ns", float64(p)*probeNs(func(n int) {
			contended(p, n, func(g, _ int) { ev := e; ev.Worker = g; bus.Publish(ev) })
		}), "ns")
		if err := tel.Close(); err != nil {
			return nil, fmt.Errorf("probe telemetry: %w", err)
		}
		var h hist.Hist
		put("telemetry.hist_record_ns", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				h.Record(float64(i&1023) * 1e-7)
			}
		}), "ns")
	}

	// mandelbrot: one column of the mandel_* image, averaged over every
	// 16th column of the unpanned paper region.
	{
		params := loopsched.MandelbrotParams{Region: loopsched.PaperRegion, Width: mandelWidth, Height: mandelHeight, MaxIter: mandelMaxIter}
		put("mandelbrot.column_us", probeNs(func(n int) {
			for i := 0; i < n; i++ {
				loopsched.MandelbrotShadedColumn(params, (i*16)%params.Width)
			}
		})/1e3, "us")
	}

	// run_fixed_ms.<R>: a whole run of N = P iterations per path.
	w := workload{name: "fixed"}
	f, err := startFleet(w, p, nil)
	if err != nil {
		return nil, err
	}
	defer f.close()
	tiny := []*loop{newLoop(loopsched.NewCSS(1), p, nil)}
	for _, r := range runtimes {
		var runErr error
		ns := probeNs(func(n int) {
			dialled.used += float64(n * r.conns(p)) // booked, never waited for: the loop is timed
			for i := 0; i < n; i++ {
				if res := r.run(ctx, f, tiny, nil, nil); res.err != nil {
					runErr = res.err
				}
			}
		})
		if runErr != nil {
			return nil, fmt.Errorf("probe run_fixed_ms.%s: %w", r.name, runErr)
		}
		put("run_fixed_ms."+r.name, ns/1e6, "ms")
	}
	return out, nil
}

// probeRefill drives one worker's Pop → Refill → Complete cycle over a
// CSS(4) job and returns nanoseconds per chunk.
func probeRefill(p int, mode exec.LedgerMode) (float64, error) {
	cfg := exec.JobConfig{Scheme: loopsched.NewCSS(4), Workload: loopsched.Uniform{N: 1 << 16}, Workers: p, Ledger: mode}
	js, err := exec.NewJobState(cfg)
	if err != nil {
		return 0, err
	}
	return probeNs(func(n int) {
		for i := 0; i < n; i++ {
			a, ok := js.Pop(0)
			if !ok {
				if a, _, ok = js.Refill(0, 10, 0, 0); !ok {
					js, _ = exec.NewJobState(cfg)
					continue
				}
			}
			js.Complete(0, a, 10, 1e-6)
		}
	}), nil
}

// countingConn counts the bytes written through one end of a stream.
type countingConn struct {
	io.ReadWriteCloser
	written int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(b)
	c.written += int64(n)
	return n, err
}

// wireEcho answers every request frame with one grant and every
// fetch-add frame with a step, until the stream closes.
func wireEcho(srv *wire.Conn) {
	var req wire.Request
	rep := wire.Reply{Grants: []sched.Assignment{{Start: 0, Size: 4}}}
	var step uint64
	for {
		kind, n, err := srv.ReadClientFrame(&req)
		if err != nil {
			return
		}
		if kind == wire.KindFetchAdd {
			err = srv.WriteStep(step)
			step += uint64(n)
		} else {
			err = srv.WriteReply(&rep)
		}
		if err != nil {
			return
		}
	}
}

// wirePair connects a client Conn to an echo server over the two ends
// of a stream.
func wirePair(cli, srv net.Conn) (*wire.Conn, *countingConn, *countingConn, error) {
	cc, sc := &countingConn{ReadWriteCloser: cli}, &countingConn{ReadWriteCloser: srv}
	go func() {
		br := bufio.NewReader(sc)
		if err := wire.ConsumePreamble(br); err != nil { // the hello a sniffing listener would consume
			return
		}
		wireEcho(wire.NewServer(sc, br))
	}()
	c, err := wire.NewClient(cc)
	return c, cc, sc, err
}

func loopbackPair() (net.Conn, net.Conn, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer ln.Close()
	type accepted struct {
		c   net.Conn
		err error
	}
	ch := make(chan accepted, 1)
	go func() {
		c, err := ln.Accept()
		ch <- accepted{c, err}
	}()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	a := <-ch
	if a.err != nil {
		cli.Close()
		return nil, nil, a.err
	}
	return cli, a.c, nil
}

// probeWire measures Conn.Call over an in-memory pipe (codec and
// framing) and over loopback TCP (plus syscalls and the round trip),
// the one-sided FetchAdd over loopback, and bytes and allocations per
// call. The request piggy-backs one 4-iteration chunk's completion,
// the reply grants one chunk: the steady state of fine_css.
func probeWire(out map[string]metric) error {
	req := wire.Request{Worker: 1, ACP: 10, Credits: 1, CompSeconds: 1e-6}
	var rep wire.Reply
	var callErr error
	call := func(c *wire.Conn) func(n int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				if err := c.Call(&req, &rep); err != nil {
					callErr = err
					return
				}
			}
		}
	}

	a, b := net.Pipe()
	mem, cc, sc, err := wirePair(a, b)
	if err != nil {
		return err
	}
	out["wire.call_mem_ns"] = metric{Value: probeNs(call(mem)), Unit: "ns"}
	const calls = 4096
	var m0, m1 runtime.MemStats
	w0 := cc.written + sc.written
	runtime.ReadMemStats(&m0)
	call(mem)(calls)
	runtime.ReadMemStats(&m1)
	out["wire.bytes_per_call"] = metric{Value: float64(cc.written+sc.written-w0) / calls, Unit: "B"}
	out["wire.allocs_per_call"] = metric{Value: float64(m1.Mallocs-m0.Mallocs) / calls, Unit: "count"}
	mem.Close()

	cli, srv, err := loopbackPair()
	if err != nil {
		return err
	}
	tcp, _, _, err := wirePair(cli, srv)
	if err != nil {
		return err
	}
	defer tcp.Close()
	out["wire.call_tcp_ns"] = metric{Value: probeNs(call(tcp)), Unit: "ns"}
	out["wire.fetchadd_tcp_ns"] = metric{Value: probeNs(func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tcp.FetchAdd(1); err != nil {
				callErr = err
				return
			}
		}
	}), Unit: "ns"}
	return callErr
}

// probeNetRPC measures one net/rpc+gob Master.NextChunk call over
// loopback against a real master handing out single iterations.
func probeNetRPC() (float64, error) {
	m, err := loopsched.NewMaster(loopsched.NewSS(), 1<<22, 1)
	if err != nil {
		return 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer m.Shutdown(ln)
	if err := m.Serve(ln); err != nil {
		return 0, err
	}
	client, err := rpc.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	defer client.Close()
	var callErr error
	ns := probeNs(func(n int) {
		for i := 0; i < n; i++ {
			var reply loopsched.ChunkReply
			if err := client.Call("Master.NextChunk", loopsched.ChunkArgs{Worker: 0}, &reply); err != nil {
				callErr = err
				return
			}
		}
	})
	return ns, callErr
}

// probeMP measures one tagged Send/Recv round trip between a slave
// rank and a minimal master loop.
func probeMP() (float64, error) {
	world, err := mp.NewWorld(2)
	if err != nil {
		return 0, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			if _, err := world[0].Recv(mp.AnySource, mp.AnyTag); err != nil {
				return
			}
			if err := world[0].Send(1, 2, []byte{0, 0, 0, 0, 0, 0, 0, 1}); err != nil {
				return
			}
		}
	}()
	var callErr error
	ns := probeNs(func(n int) {
		for i := 0; i < n; i++ {
			if err := world[1].Send(0, 1, []byte{0, 0, 0, 1}); err != nil {
				callErr = err
				return
			}
			if _, err := world[1].Recv(0, mp.AnyTag); err != nil {
				callErr = err
				return
			}
		}
	})
	world[0].Close()
	world[1].Close()
	<-done
	return ns, callErr
}
