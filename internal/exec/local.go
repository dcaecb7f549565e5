// Package exec runs parallel loops for real — not simulated — under
// any self-scheduling scheme. One master (Master, rpc.go) answers every
// slave (Worker) over a Link: in the same process a memory link calls
// the master in the worker's own goroutine (the shared-memory analogue
// of the paper's MPI program); across processes the chunk protocol
// travels over TCP — net/rpc or the binary framing of internal/wire —
// the stand-in for the paper's mpich master–slave processes.
package exec

import "sync/atomic"

// WorkerSpec emulates one heterogeneous slave inside a single process.
type WorkerSpec struct {
	// WorkScale repeats each iteration's body this many times,
	// emulating a machine 1/WorkScale as fast (1 = full speed).
	WorkScale int
	// Load is an externally adjustable run-queue surrogate: the
	// number of competing processes beyond the loop itself. Workers
	// report ACP = model.ACP(V, 1+Load) with V = 1/WorkScale relative
	// to the slowest worker. Mutate it with AddLoad.
	load atomic.Int64
}

// AddLoad adjusts the emulated external load (may go negative deltas;
// the floor is zero). The clamp is a CompareAndSwap loop so concurrent
// adjusters compose: a plain Add-then-Store(0) could overwrite another
// goroutine's delta that landed between the add and the store, or
// resurrect a stale negative floor.
func (w *WorkerSpec) AddLoad(delta int) {
	for {
		cur := w.load.Load()
		next := cur + int64(delta)
		if next < 0 {
			next = 0
		}
		if w.load.CompareAndSwap(cur, next) {
			return
		}
	}
}

// Load returns the current emulated external load.
func (w *WorkerSpec) Load() int { return int(w.load.Load()) }

func (w *WorkerSpec) scale() int {
	if w.WorkScale < 1 {
		return 1
	}
	return w.WorkScale
}

// VirtualPowers derives V_i for each worker spec: the slowest worker
// has power 1 and the rest scale up, mirroring the paper's testbed
// power normalisation.
func VirtualPowers(workers []*WorkerSpec) []float64 {
	maxScale := 1
	for _, w := range workers {
		if w.scale() > maxScale {
			maxScale = w.scale()
		}
	}
	out := make([]float64, len(workers))
	for i, w := range workers {
		out[i] = float64(maxScale) / float64(w.scale())
	}
	return out
}
