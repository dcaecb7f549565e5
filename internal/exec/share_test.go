package exec

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopsched/internal/mp"
	"loopsched/internal/sched"
	"loopsched/internal/wire"
)

// shareReaches are the ways a worker reaches a master: the memory link,
// the binary codec over TCP and a message-passing world's stream. serve
// exposes m and returns what opens worker w's link; whatever serves m is
// torn down when the test ends.
var shareReaches = []struct {
	name  string
	serve func(t *testing.T, m *Master) (open func(w int) Link)
}{
	{"memory", func(t *testing.T, m *Master) func(int) Link {
		return func(int) Link { return m.Link() }
	}},
	{"tcp", func(t *testing.T, m *Master) func(int) Link {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Serve(ln); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { m.Shutdown(ln) })
		return func(int) Link {
			l, err := Dial(context.Background(), ln.Addr().String(), TransportBinary)
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
	}},
	{"mp", func(t *testing.T, m *Master) func(int) Link {
		world, err := mp.NewWorld(1 + m.workers)
		if err != nil {
			t.Fatal(err)
		}
		var serving sync.WaitGroup
		for r := 1; r <= m.workers; r++ {
			serving.Add(1)
			go func() {
				defer serving.Done()
				m.ServeConn(keepOpen{mp.Stream(world[0], r)})
			}()
		}
		t.Cleanup(func() {
			world[0].Close()
			serving.Wait()
		})
		return func(w int) Link {
			l, err := wire.NewClient(mp.Stream(world[w+1], 0))
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
	}},
}

// TestAnUnwindowedReplyIsTheShare pins what bounds a reply when no
// window is set: the share and the ask, not a chunk count. Over every
// reach, a CSS(4) master at p = 2 over 65 536 iterations answers an ask
// of 4 096 chunks with one reply, the whole sched.BatchLimit — 16 384
// iterations — as one run.
func TestAnUnwindowedReplyIsTheShare(t *testing.T) {
	const n, p, k, ask = 1 << 16, 2, 4, 4096
	share := sched.BatchLimit(n, n, p)
	for _, reach := range shareReaches {
		t.Run(reach.name, func(t *testing.T) {
			m, err := NewMaster(sched.CSSScheme{K: k}, n, p)
			if err != nil {
				t.Fatal(err)
			}
			l := reach.serve(t, m)(0)
			defer l.Close()
			var rep wire.Reply
			if err := l.Call(&wire.Request{Worker: 0, ACP: 1, Credits: ask}, &rep); err != nil {
				t.Fatal(err)
			}
			want := sched.Run{Start: 0, Size: k, Count: share / k}
			if len(rep.Grants) != 1 || rep.Run(0) != want || want.Count != ask {
				t.Fatalf("an ask of %d chunks got grants %v × %v, want one run %+v: the share of %d iterations",
					ask, rep.Grants, rep.Counts, want, share)
			}
		})
	}
}

// timedLink is a worker's link on a scripted clock that only its kernel
// (cost an iteration) and its round trips (rtt each) move; it counts the
// requests it carries.
type timedLink struct {
	Link
	now, sentAt, rtt time.Duration
	sent             *atomic.Int64
}

func (l *timedLink) clock() time.Time { return time.Unix(0, 0).Add(l.now) }

func (l *timedLink) Send(req *wire.Request) error {
	l.sent.Add(1)
	l.sentAt = l.now
	return l.Link.Send(req)
}

func (l *timedLink) Recv(rep *wire.Reply) error {
	l.now = max(l.now, l.sentAt+l.rtt)
	return l.Link.Recv(rep)
}

func (l *timedLink) Call(req *wire.Request, rep *wire.Reply) error {
	if err := l.Send(req); err != nil {
		return err
	}
	return l.Recv(rep)
}

// TestAFineRunTakesFewRequests runs the fine loop of
// TestAnUnwindowedReplyIsTheShare with two pipelined workers, no window
// set, over every reach. Their round trip (100 µs of scripted time) is
// worth 100 000 one-nanosecond iterations, so every ask after the first
// passes the share, and the share alone cuts the loop: fewer than 64
// requests in all, where replies of 256 chunks would have taken 64 at
// the least.
func TestAFineRunTakesFewRequests(t *testing.T) {
	const n, p, k = 1 << 16, 2, 4
	const cost, rtt = time.Nanosecond, 100 * time.Microsecond
	for _, reach := range shareReaches {
		t.Run(reach.name, func(t *testing.T) {
			m, err := NewMaster(sched.CSSScheme{K: k}, n, p)
			if err != nil {
				t.Fatal(err)
			}
			open := reach.serve(t, m)
			var (
				sent    atomic.Int64
				workers sync.WaitGroup
				errs    [p]error
			)
			for id := range p {
				l := &timedLink{Link: open(id), rtt: rtt, sent: &sent}
				w := Worker{ID: id, Pipeline: true, clock: l.clock, Kernel: func(int) []byte {
					l.now += cost
					return nil
				}}
				workers.Add(1)
				go func() {
					defer workers.Done()
					errs[id] = w.RunLink(context.Background(), l)
				}()
			}
			workers.Wait()
			for id, err := range errs {
				if err != nil {
					t.Fatalf("worker %d: %v", id, err)
				}
			}
			if _, err := m.WaitReport(context.Background()); err != nil {
				t.Fatal(err)
			}
			if got := sent.Load(); got >= 64 {
				t.Errorf("the run took %d requests, want fewer than 64", got)
			}
			t.Logf("%d requests", sent.Load())
		})
	}
}
