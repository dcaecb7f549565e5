package exec

import (
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/wire"
)

// scriptSource is a Source played from a script: the ranges it holds,
// and the ranges its synchronous fetches bring, one each. With m set it
// holds the master to the fetch rule: every staged iteration delivered.
// Its calls come one at a time, as a master with one request in it at a
// time makes them.
type scriptSource struct {
	t         *testing.T
	m         *Master
	held      []sched.Assignment
	later     []sched.Assignment
	fetches   int
	acp       int // on the last fetch
	forwarded int // iterations forwarded
}

func (s *scriptSource) Take() (int, int, bool) {
	if len(s.held) == 0 {
		return 0, 0, false
	}
	a := s.held[0]
	s.held = s.held[1:]
	return a.Start, a.Size, true
}

func (s *scriptSource) Fetch(acp int) error {
	if s.m != nil {
		if got, staged := s.m.received.Load(), s.m.staged.Load(); got != staged {
			s.t.Errorf("fetch with %d of %d staged iterations delivered", got, staged)
		}
	}
	s.fetches++
	s.acp = acp
	if len(s.later) > 0 {
		s.held, s.later = append(s.held, s.later[0]), s.later[1:]
	}
	return nil
}

func (s *scriptSource) Exhausted() bool { return len(s.held) == 0 && len(s.later) == 0 }

func (s *scriptSource) Forward(results []ChunkResult) {
	for _, r := range results {
		s.forwarded += r.Iterations()
	}
}

// TestMasterStagesFromItsSource pins the source contract without
// sockets, driving a shard master's request handler directly as
// checkMasterReplies does. A prefetch that finds the stage drained is
// granted from the range the source holds (a); the source is asked to
// fetch only by a synchronous request, and only once every staged
// iteration is delivered — until then that request parks (b); the run
// ends only when the source is exhausted and everything staged is
// delivered (c).
func TestMasterStagesFromItsSource(t *testing.T) {
	src := &scriptSource{
		t:     t,
		held:  []sched.Assignment{{Start: 0, Size: 100}, {Start: 100, Size: 50}},
		later: []sched.Assignment{{Start: 150, Size: 100}},
	}
	m, err := New(Config{Scheme: sched.CSSScheme{K: 100}, Iterations: 250, Workers: 2, Source: src, Members: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	src.m = m
	ask := func(args ChunkArgs, delivered ...sched.Assignment) wire.Reply {
		for _, a := range delivered {
			args.Results = append(args.Results, ChunkResult{Index: a.Start, Count: a.Size})
		}
		args.ACP = 1
		var rep wire.Reply
		if err := m.nextBatch(args, 8, &rep); err != nil {
			t.Error(err)
		}
		return rep
	}
	one := func(step string, rep wire.Reply, want sched.Assignment) {
		t.Helper()
		if len(rep.Grants) != 1 || rep.Grants[0] != want || rep.Stop {
			t.Fatalf("%s: reply %+v, want the one grant %+v", step, rep, want)
		}
	}

	first := sched.Assignment{Start: 0, Size: 100}
	one("first request", ask(ChunkArgs{Worker: 0}), first)
	// (a) The stage is drained; the source holds [100, 150).
	second := sched.Assignment{Start: 100, Size: 50}
	one("prefetch on a drained stage", ask(ChunkArgs{Worker: 0, Prefetch: true}), second)
	if src.fetches != 0 {
		t.Fatalf("%d fetches while the source held a range", src.fetches)
	}
	// (b) Nothing is held, and [0, 150) is staged but undelivered: a
	// prefetch gets nothing, a synchronous request parks.
	if rep := ask(ChunkArgs{Worker: 1, Prefetch: true}); len(rep.Grants) != 0 || rep.Stop {
		t.Fatalf("prefetch with nothing to stage: reply %+v, want empty", rep)
	}
	parked := make(chan wire.Reply)
	go func() { parked <- ask(ChunkArgs{Worker: 1}) }()
	waitParked(t, m, 1)
	if rep := ask(ChunkArgs{Worker: 0, Prefetch: true}, first); len(rep.Grants) != 0 || rep.Stop {
		t.Fatalf("prefetch delivering [0, 100): reply %+v, want empty", rep)
	}
	if m.Parked() != 1 || m.doneClosed() {
		t.Fatalf("%d parked, done %v, with [100, 150) undelivered", m.Parked(), m.doneClosed())
	}
	// The last staged iteration lands: the parked request fetches.
	if rep := ask(ChunkArgs{Worker: 0, Prefetch: true}, second); len(rep.Grants) != 0 || rep.Stop {
		t.Fatalf("prefetch delivering [100, 150): reply %+v, want empty", rep)
	}
	third := sched.Assignment{Start: 150, Size: 100}
	one("the parked request on a quiescent shard", <-parked, third)
	if src.fetches != 1 || src.acp != 2 {
		t.Fatalf("%d fetches with ACP %d, want 1 with the workers' sum 2", src.fetches, src.acp)
	}
	// (c) The source is exhausted; [150, 250) is still out.
	if !src.Exhausted() || m.doneClosed() {
		t.Fatalf("source exhausted %v, run done %v: want exhausted and not done", src.Exhausted(), m.doneClosed())
	}
	if rep := ask(ChunkArgs{Worker: 1}, third); !rep.Stop || len(rep.Grants) != 0 {
		t.Fatalf("last delivery: reply %+v, want Stop", rep)
	}
	results, rep, err := m.Wait()
	if err != nil || rep.Iterations != 250 || results != nil || src.forwarded != 250 {
		t.Fatalf("Wait: %d iterations, results kept %v, %d forwarded, err %v", rep.Iterations, results != nil, src.forwarded, err)
	}
}
