package exec

import (
	"reflect"
	"strings"
	"testing"

	"loopsched/internal/wire"
)

// TestCompute holds the one compute step to its contract, arm by arm:
// the bare arm records a range as one run whatever its body does, the
// kernel arm a record per result with bytes and a run per stretch
// without; every iteration runs scale times; a run continues dst's last
// record only when that record is a run ending where the range starts;
// and a panic is an error naming the range,
// with the records dropped.
func TestCompute(t *testing.T) {
	data := []byte{7}
	even := func(i int) []byte { // bytes on even iterations only
		if i%2 == 0 {
			return data
		}
		return nil
	}
	empty := func(int) []byte { return nil }
	run := func(index, count int) wire.Record { return wire.Record{Index: index, Count: count} }
	one := func(index int) wire.Record { return wire.Record{Index: index, Data: data} }
	for _, c := range []struct {
		name    string
		bare    bool
		kernel  func(i int) []byte
		scale   int
		dst     []wire.Record
		lo, hi  int
		panicAt int // -1: never
		want    []wire.Record
	}{
		{"bare", true, even, 1, nil, 3, 10, -1, []wire.Record{run(3, 7)}},
		{"kernel: runs and results", false, even, 1, nil, 3, 8, -1,
			[]wire.Record{run(3, 1), one(4), run(5, 1), one(6), run(7, 1)}},
		{"kernel without bytes: one run, as bare", false, empty, 1, nil, 3, 10, -1, []wire.Record{run(3, 7)}},
		{"bare, scaled", true, empty, 3, nil, 0, 4, -1, []wire.Record{run(0, 4)}},
		{"kernel, scaled", false, empty, 3, nil, 0, 4, -1, []wire.Record{run(0, 4)}},
		{"bare extends the last run", true, empty, 1, []wire.Record{run(0, 3)}, 3, 10, -1, []wire.Record{run(0, 10)}},
		{"kernel extends the last run", false, empty, 1, []wire.Record{run(0, 3)}, 3, 10, -1, []wire.Record{run(0, 10)}},
		{"no extension past a gap", true, empty, 1, []wire.Record{run(0, 2)}, 3, 10, -1,
			[]wire.Record{run(0, 2), run(3, 7)}},
		{"no extension of a result", true, empty, 1, []wire.Record{one(2)}, 3, 10, -1,
			[]wire.Record{one(2), run(3, 7)}},
		{"an empty range records nothing", true, empty, 1, []wire.Record{run(0, 3)}, 3, 3, -1, []wire.Record{run(0, 3)}},
		{"bare panic", true, empty, 1, []wire.Record{run(0, 3)}, 3, 10, 5, nil},
		{"kernel panic", false, even, 1, []wire.Record{run(0, 3)}, 3, 10, 5, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			calls := make([]int, c.hi)
			kernel := func(i int) []byte {
				calls[i]++
				if i == c.panicAt {
					panic("boom")
				}
				return c.kernel(i)
			}
			var body func(int)
			if c.bare {
				body = func(i int) { kernel(i) }
			}
			got, err := Compute(body, kernel, c.scale, c.dst, c.lo, c.hi)
			if c.panicAt >= 0 {
				want := "panicked on iteration range [3,10): boom"
				if err == nil || !strings.Contains(err.Error(), want) || len(got) != 0 {
					t.Fatalf("got %+v, %v; want no records and an error containing %q", got, err, want)
				}
				return
			}
			if err != nil || !reflect.DeepEqual(got, c.want) {
				t.Fatalf("got %+v, %v; want %+v", got, err, c.want)
			}
			for i := c.lo; i < c.hi; i++ {
				if calls[i] != c.scale {
					t.Fatalf("iteration %d ran %d times, want %d", i, calls[i], c.scale)
				}
			}
		})
	}
}
