package sched

import "sync"

// Synchronized wraps a policy with a mutex so callers can drive it
// directly from multiple goroutines without building a master loop —
// the in-process equivalent of the paper's lock on the loop index
// variable ("requesting PE acquire a lock on the loop index variable
// in order to be assigned new iterations", §2.2). Feedback support is
// preserved when the wrapped policy learns.
func Synchronized(p Policy) Policy {
	s := &syncPolicy{p: p}
	if fb, ok := p.(FeedbackPolicy); ok {
		return &syncFeedbackPolicy{syncPolicy: s, fb: fb}
	}
	return s
}

type syncPolicy struct {
	mu sync.Mutex
	p  Policy
}

func (s *syncPolicy) Next(req Request) (Assignment, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Next(req)
}

func (s *syncPolicy) Remaining() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.p.Remaining()
}

type syncFeedbackPolicy struct {
	*syncPolicy
	fb FeedbackPolicy
}

func (s *syncFeedbackPolicy) Feedback(worker int, work, elapsed float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fb.Feedback(worker, work, elapsed)
}

// ForEach is the paper's self-scheduled DOALL as a library one-liner:
// it runs body(i) for every i in [0, n) on `workers` goroutines,
// claiming chunks from the scheme through a synchronized policy. It is
// the minimal shared-memory counterpart of the local backend (no ACP,
// no per-worker metrics) for callers who just want the loop done.
func ForEach(s Scheme, n, workers int, body func(i int)) error {
	pol, err := s.NewPolicy(Config{Iterations: n, Workers: workers})
	if err != nil {
		return err
	}
	shared := Synchronized(pol)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				a, ok := shared.Next(Request{Worker: w})
				if !ok {
					return
				}
				for i := a.Start; i < a.End(); i++ {
					body(i)
				}
			}
		}(w)
	}
	wg.Wait()
	return nil
}
