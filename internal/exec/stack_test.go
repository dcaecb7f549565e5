package exec

import (
	"reflect"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"unsafe"

	"loopsched/internal/sched"
)

// rpcStack is the stack a net/rpc call goroutine has by the time it
// reaches Master.NextChunk: the reflect frames net/rpc calls the method
// through grow the 2 KB a goroutine starts with to 4 KB on their own.
const rpcStack = 4 << 10

// deepStack is the budget of the schemes whose own policy frames take a
// call past rpcStack: DGSS's draws, and AWF's first draw after feedback.
var deepStack = map[string]int{"DGSS": 2 * rpcStack, "AWF": 2 * rpcStack}

// growTo4K and growTo8K leave the calling goroutine with a stack of 4 or
// 8 KB, when it starts with less.
//
//go:noinline
func growTo4K() byte {
	var frame [rpcStack * 5 / 8]byte
	return touch(frame[:])
}

//go:noinline
func growTo8K() byte {
	var frame [rpcStack * 5 / 4]byte
	return touch(frame[:])
}

//go:noinline
func touch(b []byte) byte { return b[0] + b[len(b)-1] }

// TestGobCallStaysInItsStack pins the gob path's stack: net/rpc runs
// every Master.NextChunk call on a fresh goroutine, so a frame on the
// request path — nextBatch, grants, the book's Grant, Claim, book — that
// pushes the call past the stack net/rpc's frames leave it with costs a
// stack copy (runtime.newstack) per chunk, which no alloc guard sees.
// For every registered scheme, each worker's first call (a synchronous
// request) and then each one's second (a prefetch delivering the first's
// chunk) run one at a time, each on a fresh goroutine grown to rpcStack
// (deepStack for the schemes it names) and called through reflect as
// net/rpc calls it; a call that is granted a chunk must not move the
// stack. A call granted nothing — a worker's last, once per run — may.
func TestGobCallStaysInItsStack(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // no stack shrinks, no new starting size
	start := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	if metrics.Read(start); start[0].Value.Uint64() > rpcStack {
		t.Skipf("goroutines start with %d bytes of stack: a call past %d would not show", start[0].Value.Uint64(), rpcStack)
	}
	next := reflect.ValueOf((*Master).NextChunk)
	const p = 4
	for _, name := range sched.Names() {
		s, err := sched.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Scheme: s, Iterations: 1 << 16, Workers: p, InitACP: []int{1, 2, 3, 4}})
		if err != nil {
			t.Fatal(err)
		}
		budget, grow := rpcStack, growTo4K
		if deepStack[name] > 0 {
			budget, grow = deepStack[name], growTo8K
		}
		replies := make([]ChunkReply, p)
		for call := range 2 {
			for w := range p {
				args, reply := ChunkArgs{Worker: w, ACP: 1 + w, Prefetch: call > 0}, &replies[w]
				if call > 0 {
					args.Results = []ChunkResult{{Index: reply.Assign.Start, Count: reply.Assign.Size}}
				}
				*reply = ChunkReply{} // as net/rpc decodes into a fresh reply
				moved, done := false, make(chan struct{})
				go func() {
					defer close(done)
					grow()
					var mark byte
					at := uintptr(unsafe.Pointer(&mark))
					out := next.Call([]reflect.Value{reflect.ValueOf(m), reflect.ValueOf(args), reflect.ValueOf(reply)})
					if err, _ := out[0].Interface().(error); err != nil {
						t.Error(err)
					}
					moved = uintptr(unsafe.Pointer(&mark)) != at
				}()
				<-done
				if moved && reply.Assign.Size > 0 {
					t.Errorf("%s: worker %d's call %d (prefetch %v) grew its goroutine's stack past %d bytes",
						name, w, call, args.Prefetch, budget)
				}
			}
		}
	}
}
