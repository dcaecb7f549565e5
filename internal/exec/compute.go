package exec

import (
	"fmt"
	"slices"

	"loopsched/internal/wire"
)

// Compute is the one compute step of every worker, runWindow's and the
// scheduler fleet's: it runs iterations [lo, hi), each scale times (at
// least once), and appends their completion records to dst. A non-nil
// body is the bare arm, for results nobody reads: a plain loop, recorded
// as one run. Otherwise kernel runs, and each result with bytes
// is a record, each stretch without one run. The first run continues
// dst's last record if that is a run ending at lo. A panic
// is returned as an error naming [lo, hi), with dst emptied: the batch is
// abandoned.
//
//lint:loopsched-hotpath
func Compute(body func(i int), kernel Kernel, scale int, dst []wire.Record, lo, hi int) (recs []wire.Record, err error) {
	defer func() {
		if r := recover(); r != nil {
			recs, err = dst[:0], fmt.Errorf("exec: body panicked on iteration range [%d,%d): %v", lo, hi, r)
		}
	}()
	last := len(dst) - 1
	open := last >= 0 && dst[last].Count > 0 && dst[last].Index+dst[last].Count == lo // dst's last record is a run this call extends
	scale = max(1, scale)
	if body != nil {
		for range scale { // the range over again, so that the inner loop stays plain
			for i := lo; i < hi; i++ {
				body(i)
			}
		}
		if open {
			dst[last].Count += hi - lo
		} else if lo < hi {
			dst = append(dst, wire.Record{Index: lo, Count: hi - lo})
		}
		return dst, nil
	}
	for i := lo; i < hi; i++ {
		var data []byte
		for range scale {
			data = kernel(i)
		}
		switch {
		case len(data) > 0:
			if len(dst) == cap(dst) {
				// Room for the rest of the range at once: a loop whose
				// results carry bytes takes one record per iteration.
				//lint:loopsched-ignore hotalloc one growth step per outgrown buffer; the caller reuses it after
				dst = slices.Grow(dst, hi-i)
			}
			dst, open = append(dst, wire.Record{Index: i, Data: data}), false
		case open:
			dst[len(dst)-1].Count++
		default:
			dst, open = append(dst, wire.Record{Index: i, Count: 1}), true
		}
	}
	return dst, nil
}
