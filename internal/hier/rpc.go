package hier

import (
	"errors"
	"sync"

	"loopsched/internal/exec"
	"loopsched/internal/sched"
	"loopsched/internal/telemetry"
	"loopsched/internal/wire"
)

// Submaster is the middle tier of the hierarchy: an exec.Master whose
// stage source is the root. Its workers are stock exec.Worker slaves;
// every request is answered by the master. The Submaster itself is the
// source, a client of the root over the same kind of exec.Link its
// workers use: one super-chunk per fetch, each fetch forwarding, record
// for record, what the workers delivered since the last. Once the last
// super-chunk it holds is staged it prefetches the next, so the root
// round trip hides behind local computation.
//
// Deadlock discipline: a fetch that may park at the root — a
// synchronous one — goes out only when the shard is quiescent (the
// master's rule, exec.Source): every staged iteration delivered and
// riding on that very fetch, so parking it until the global run ends is
// safe. Prefetches, which the root answers at once, may go any time.
type Submaster struct {
	*exec.Master
	shard int
	bus   *telemetry.Bus
	root  exec.Link
	bg    sync.WaitGroup // the prefetch in flight

	// mu guards the rest; req and rep serve one fetch at a time (a prefetch
	// leaves as the last held super-chunk is taken, a synchronous one after bg).
	mu       sync.Mutex
	req      wire.Request
	rep      wire.Reply
	acp      int                // the shard's aggregate ACP on its last fetch
	buffered []sched.Assignment // fetched super-chunks not yet staged
	pending  []wire.Record      // delivered results awaiting the next fetch
	done     bool               // the root said stop
	err      error
}

// NewSubmaster returns the shard master cfg describes (cfg.Shard,
// cfg.Members and the rest; its Source is the Submaster), fetching its
// super-chunks from the root over root — a link exec.Dial opened, or the
// root master's own memory link (Master.Link) in the same process — which
// it owns from here on. cfg.Telemetry also receives the stage advance
// published for every super-chunk staged.
func NewSubmaster(cfg exec.Config, root exec.Link) (*Submaster, error) {
	s := &Submaster{shard: cfg.Shard, bus: cfg.Telemetry, root: root}
	cfg.Source = s
	var err error
	if s.Master, err = exec.New(cfg); err != nil {
		root.Close()
		return nil, err
	}
	return s, nil
}

// Close joins the prefetch in flight, closes the root link — a socket's
// close errors out a fetch parked there; over a memory link the root
// master's Cancel releases it — ends the shard's run and tears down the
// worker connections accepted by Serve. Close the listener first.
func (s *Submaster) Close() error {
	s.bg.Wait()
	err := s.root.Close()
	s.Cancel(errors.New("hier: submaster closed"))
	s.Shutdown(nil)
	return err
}

// Take implements exec.Source: it hands the master the next buffered
// super-chunk and, when that was the last, prefetches another.
func (s *Submaster) Take() (start, size int, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buffered) == 0 {
		return 0, 0, false
	}
	g := s.buffered[0]
	s.buffered = s.buffered[1:]
	s.bus.Publish(telemetry.Event{
		Kind: telemetry.StageAdvanced, Shard: s.shard,
		Start: g.Start, Size: g.Size, At: s.bus.Now(),
	})
	if len(s.buffered) == 0 && !s.done && s.err == nil {
		s.fill(true)
		s.bg.Add(1)
		go func() {
			defer s.bg.Done()
			err := s.root.Call(&s.req, &s.rep)
			s.mu.Lock()
			s.absorb(err)
			s.mu.Unlock()
			s.Wake()
		}()
	}
	return g.Start, g.Size, true
}

// Fetch implements exec.Source: it waits for the prefetch in flight and,
// if that brought nothing, sends a synchronous fetch the root may hold.
func (s *Submaster) Fetch(acp int) error {
	s.bg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.buffered) > 0 || s.done || s.err != nil {
		return s.err
	}
	s.acp = acp
	s.fill(false)
	s.mu.Unlock()
	err := s.root.Call(&s.req, &s.rep)
	s.mu.Lock()
	s.absorb(err)
	return err
}

// Exhausted implements exec.Source: the root said stop, and all is staged.
func (s *Submaster) Exhausted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.done && len(s.buffered) == 0
}

// Forward implements exec.Source: the results ride on the next fetch.
func (s *Submaster) Forward(results []exec.ChunkResult) {
	if len(results) == 0 {
		return
	}
	s.mu.Lock()
	for _, r := range results {
		s.pending = append(s.pending, wire.Record{Index: r.Index, Count: r.Count, Data: r.Data})
	}
	s.mu.Unlock()
}

// fill loads req with the outgoing fetch: the shard's aggregate ACP and
// every result accumulated since the last one, runs as runs; the last
// fetch's records, sent by now, become the next buffer. Callers hold mu.
func (s *Submaster) fill(prefetch bool) {
	sent := s.req.Results[:0]
	s.req = wire.Request{Worker: s.shard, ACP: s.acp, Prefetch: prefetch, Credits: 1, Results: s.pending}
	s.pending = sent
}

// absorb files a finished fetch. Its results rode on the call, so after
// an error — without knowing whether the root got them — the run cannot
// go on safely. Callers hold mu.
func (s *Submaster) absorb(err error) {
	switch {
	case err != nil:
		s.err = err
	case s.rep.Stop:
		s.done = true
	default:
		s.buffered = append(s.buffered, s.rep.Grants...)
	}
}
