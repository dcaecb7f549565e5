package sched

// BatchLimit is the assignment rule every chunk batcher obeys
// (exec.Master's replies on every backend and to every scheduler job's
// fleet; stated once in docs/LEDGER.md "Share-bounded
// batches"): one trip may hand a PE consecutive chunks
// only while their iteration total stays within
//
//	max(⌈R/(2p)⌉, ⌈N/(32p)⌉)
//
// where R is the iterations not yet granted, N the loop length and p
// the worker count. The first term is FSS's "half the remainder per
// stage" applied to batches instead of chunks, so batching can never
// re-glue a decreasing chunk sequence into one static block; the second
// is a floor that lets the scheme's tiny tail chunks still travel
// together — the imbalance they can cause is bounded by 1/32 of a PE's
// even share N/p, and without it every 1–16-iteration tail chunk pays
// its own round trip. A batch is always at least one chunk, however
// large, so the limit bounds what is added to the first chunk, not the
// chunk itself.
func BatchLimit(remaining, total, workers int) int {
	limit := CeilDiv(remaining, 2*workers)
	if floor := CeilDiv(total, 32*workers); floor > limit {
		limit = floor
	}
	return limit
}
