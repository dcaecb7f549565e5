package exec

import (
	"testing"

	"loopsched/internal/sched"
	"loopsched/internal/wire"
)

// countingCSS is CSS that counts the plans made of it. It hides no
// weighting or distribution, because CSS has neither.
type countingCSS struct {
	sched.CSSScheme
	plans *int
}

func (c countingCSS) NewPolicy(cfg sched.Config) (sched.Policy, error) {
	*c.plans++
	return c.CSSScheme.NewPolicy(cfg)
}

// TestMasterPlansOncePerStage: New builds the dispenser once and plans
// each stage once, whatever the Config sets — a plain master, one with
// the re-plan off, a scheduler job's (its gather done by the caller) and
// a shard master over a source of two ranges — while one worker draws
// the whole loop.
func TestMasterPlansOncePerStage(t *testing.T) {
	const n, p = 1000, 2
	for _, c := range []struct {
		name   string
		cfg    Config
		stages int
	}{
		{"plain", Config{}, 1},
		{"no-replan", Config{NoReplan: true}, 1},
		{"job", Config{Window: DefaultStealWindow, Job: 1, Tenant: 1, InitACP: []int{1, 1}}, 1},
		{"shard", Config{Members: []int{0, 1}, Source: &scriptSource{
			held: []sched.Assignment{{Start: 0, Size: 600}, {Start: 600, Size: 400}},
		}}, 2},
	} {
		t.Run(c.name, func(t *testing.T) {
			plans := 0
			cfg := c.cfg
			cfg.Scheme, cfg.Iterations, cfg.Workers = countingCSS{sched.CSSScheme{K: 10}, &plans}, n, p
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var held []ChunkResult
			for !m.doneClosed() {
				var rep wire.Reply
				if err := m.nextBatch(ChunkArgs{Worker: 0, ACP: 1, Prefetch: true, Results: held}, 8, &rep); err != nil {
					t.Fatal(err)
				}
				held = held[:0]
				for _, a := range rep.Grants {
					held = append(held, ChunkResult{Index: a.Start, Count: a.Size})
				}
			}
			if _, rep, err := m.Wait(); err != nil || rep.Iterations != n {
				t.Fatalf("Wait: %d of %d iterations, err %v", rep.Iterations, n, err)
			}
			if plans != c.stages {
				t.Errorf("%d plans for %d stages", plans, c.stages)
			}
		})
	}
}
