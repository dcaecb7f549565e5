package loopsched_test

import (
	"context"
	"sort"
	"testing"

	"loopsched"
	"loopsched/internal/sched"
)

// chunkPair is one granted chunk's [Start, Start+Size) range.
type chunkPair struct{ Start, Size int }

// ledgerChunkSeq runs the spec under a fresh telemetry session, checks
// full iteration coverage, and returns the granted chunk boundaries
// sorted by start — the partition of [0, n) the scheduler produced —
// plus the session's ledger fetch-add total (zero when every grant went
// through the master path).
func ledgerChunkSeq(t *testing.T, spec loopsched.RunSpec) ([]chunkPair, uint64) {
	t.Helper()
	seq, fetches, _, _ := ledgerRun(t, spec)
	return seq, fetches
}

// ledgerRun is ledgerChunkSeq that also returns the run's report and
// the number of grants the session saw published.
func ledgerRun(t *testing.T, spec loopsched.RunSpec) (seq []chunkPair, fetches uint64, rep loopsched.Report, granted uint64) {
	t.Helper()
	tele, err := loopsched.NewTelemetry(loopsched.TelemetryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer tele.Close()
	tr := &loopsched.Trace{}
	spec.Telemetry, spec.Trace = tele, tr

	rep, err = loopsched.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n := spec.Workload.Len()
	if rep.Iterations != n {
		t.Fatalf("iterations %d, want %d", rep.Iterations, n)
	}
	tele.Flush()

	evs := tr.Events()
	seq = make([]chunkPair, 0, len(evs))
	for _, e := range evs {
		seq = append(seq, chunkPair{e.Start, e.Size})
	}
	sort.Slice(seq, func(i, j int) bool { return seq[i].Start < seq[j].Start })
	// Regardless of which path granted them, the chunks must tile the
	// iteration space exactly: no gap, no overlap.
	next := 0
	for _, c := range seq {
		if c.Start != next || c.Size <= 0 {
			t.Fatalf("chunk sequence does not tile [0,%d): got start=%d size=%d, want start=%d", n, c.Start, c.Size, next)
		}
		next = c.Start + c.Size
	}
	if next != n {
		t.Fatalf("chunk sequence covers [0,%d), want [0,%d)", next, n)
	}
	snap := tele.Aggregator().Snapshot()
	return seq, snap.LedgerFetches, rep, snap.ChunksGranted
}

// stepDeterministicSchemes returns every registered scheme that
// declares step-deterministic chunk boundaries — the ledger-eligible
// set the equivalence property must hold for.
func stepDeterministicSchemes(t *testing.T) []loopsched.Scheme {
	t.Helper()
	var out []loopsched.Scheme
	for _, name := range loopsched.SchemeNames() {
		s, err := loopsched.LookupScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.StepDeterministic(s) {
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		t.Fatal("no step-deterministic schemes registered")
	}
	return out
}

// TestLedgerTransportEquivalence pins that RunSpec.Ledger is accepted
// and ignored: every Run grants only through the master's dialogue, so
// for every step-deterministic scheme, on every backend, a run with
// Ledger "on" produces chunk boundaries identical to the same run with
// "off", and neither publishes a ledger fetch. (The master's own
// step-table draws are lock-free either way; they are not one-sided
// claims and are not counted as such.)
func TestLedgerTransportEquivalence(t *testing.T) {
	const n = 3000
	w := loopsched.Uniform{N: n, C: 1}
	kernel := func(i int) []byte { return []byte{byte(i)} }

	backends := []struct {
		name string
		spec func(s loopsched.Scheme, ledger string) loopsched.RunSpec
	}{
		{"local-steal", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal,
				Workers: runWorkers(), Body: func(i int) {},
				Ledger: ledger,
			}
		}},
		{"rpc-binary", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel,
				Ledger: ledger,
			}
		}},
		{"rpc-netrpc", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel: kernel, Transport: "netrpc",
				Ledger: ledger,
			}
		}},
		{"mp", func(s loopsched.Scheme, ledger string) loopsched.RunSpec {
			return loopsched.RunSpec{
				Scheme: s, Workload: w,
				Backend: loopsched.BackendMP, Workers: runWorkers(),
				Kernel: kernel,
				Ledger: ledger,
			}
		}},
	}

	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			for _, s := range stepDeterministicSchemes(t) {
				s := s
				t.Run(s.Name(), func(t *testing.T) {
					t.Parallel()
					off, offFetches := ledgerChunkSeq(t, b.spec(s, "off"))
					on, onFetches := ledgerChunkSeq(t, b.spec(s, "on"))
					if offFetches != 0 || onFetches != 0 {
						t.Errorf("ledger fetches: %d with \"off\", %d with \"on\"; want none", offFetches, onFetches)
					}
					sameSeq(t, "ledger on vs off", on, off)
				})
			}
		})
	}
}

// distributedSchemes returns every registered scheme of the paper's
// distributed family — AWF, which learns, aside — and the benchmark's
// DCSS(4).
func distributedSchemes(t *testing.T) []loopsched.Scheme {
	t.Helper()
	out := []loopsched.Scheme{loopsched.NewDCSS(4)}
	for _, name := range loopsched.SchemeNames() {
		s, err := loopsched.LookupScheme(name)
		if err != nil {
			t.Fatal(err)
		}
		if sched.Distributed(s) && !sched.Learns(s) {
			out = append(out, s)
		}
	}
	if len(out) < 7 {
		t.Fatalf("only %d distributed schemes registered", len(out)-1)
	}
	return out
}

// policySeq replays the scheme's policy for p workers of the given ACP
// (0: a homogeneous system without powers), every request carrying it.
func policySeq(t *testing.T, s loopsched.Scheme, n, p, acp int) []chunkPair {
	t.Helper()
	cfg := sched.Config{Iterations: n, Workers: p}
	if acp > 0 {
		cfg.Powers = make([]float64, p)
		for i := range cfg.Powers {
			cfg.Powers[i] = float64(acp)
		}
	}
	pol, err := s.NewPolicy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var seq []chunkPair
	for i := 0; ; i++ {
		a, ok := pol.Next(sched.Request{Worker: i % p, ACP: float64(acp)})
		if !ok {
			return seq
		}
		seq = append(seq, chunkPair{a.Start, a.Size})
	}
}

func sameSeq(t *testing.T, what string, got, want []chunkPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d chunks, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: chunk %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestLedgerDistributedEquivalence is the distributed leg: the paper's
// distributed schemes are granted from the recursive policy whatever
// RunSpec.Ledger says, so their sequence is the paper's C_j = SC_k·A_j/A
// on every run. What must hold:
//
//   - on 1:3 workers a run with Ledger "on" tiles the loop, publishes no
//     ledger fetch, and reports exactly the grants it published;
//   - on equal workers every request carries the same ACP, so the run is
//     deterministic: with "on" and with "off" it reproduces the policy
//     replayed for p workers of that ACP;
//   - replayed for a homogeneous system, DFSS, DTFSS, DCSS(k) and DGSS
//     are their simple counterparts (the paper's reduction property);
//   - at p = 1 the run is the policy replay chunk for chunk.
func TestLedgerDistributedEquivalence(t *testing.T) {
	const n = 3000
	w := loopsched.Uniform{N: n, C: 1}
	spec := func(s loopsched.Scheme, workers []*loopsched.WorkerSpec, ledger string) loopsched.RunSpec {
		return loopsched.RunSpec{
			Scheme: s, Workload: w,
			Backend: loopsched.BackendRPC, Transport: "binary", Workers: workers,
			Kernel: func(i int) []byte { return []byte{byte(i)} },
			Ledger: ledger,
		}
	}
	simple := map[string]loopsched.Scheme{
		"DFSS": loopsched.NewFSS(), "DTFSS": loopsched.NewTFSS(), "DGSS": loopsched.NewGSS(0),
		"DCSS(4)": loopsched.NewCSS(4), "DCSS(16)": loopsched.NewCSS(16),
	}
	for _, s := range distributedSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			hetero := []*loopsched.WorkerSpec{{WorkScale: 1}, {WorkScale: 3}}
			_, fetches, rep, granted := ledgerRun(t, spec(s, hetero, "on"))
			if fetches != 0 {
				t.Errorf("ledger-on run recorded %d ledger fetches", fetches)
			}
			if uint64(rep.Chunks) != granted {
				t.Errorf("Report.Chunks = %d, %d grants were published", rep.Chunks, granted)
			}
			if rep.Replans != 0 {
				t.Errorf("%d re-plans on constant ACPs", rep.Replans)
			}

			equal := func() []*loopsched.WorkerSpec {
				return []*loopsched.WorkerSpec{{WorkScale: 1}, {WorkScale: 1}, {WorkScale: 1}}
			}
			want := policySeq(t, s, n, 3, 10)
			for _, mode := range []string{"on", "off"} {
				seq, fetches := ledgerChunkSeq(t, spec(s, equal(), mode))
				if fetches != 0 {
					t.Errorf("equal-worker ledger-%s run recorded %d ledger fetches", mode, fetches)
				}
				sameSeq(t, "equal workers, ledger "+mode+" vs the policy replay", seq, want)
			}
			if counterpart, ok := simple[s.Name()]; ok {
				sameSeq(t, "homogeneous "+s.Name()+" vs "+counterpart.Name(), policySeq(t, s, n, 3, 0), policySeq(t, counterpart, n, 3, 0))
			}

			one := []*loopsched.WorkerSpec{{WorkScale: 1}}
			off, offFetches := ledgerChunkSeq(t, spec(s, one, "off"))
			if offFetches != 0 {
				t.Errorf("p=1 ledger-off run recorded %d ledger fetches", offFetches)
			}
			sameSeq(t, "p=1, ledger off vs the policy replay", off, policySeq(t, s, n, 1, 10))
		})
	}
}

// TestLedgerIneligibleSchemeFallsBack pins the advisory contract:
// turning the ledger on for a scheme that is not step-deterministic is
// not an error — the run silently stays on the master path and still
// covers the loop.
func TestLedgerIneligibleSchemeFallsBack(t *testing.T) {
	scheme, err := loopsched.LookupScheme("AWF")
	if err != nil {
		t.Fatal(err)
	}
	if sched.StepDeterministic(scheme) {
		t.Fatal("AWF unexpectedly declares step-deterministic boundaries")
	}
	for _, backend := range []struct {
		name string
		spec loopsched.RunSpec
	}{
		{"local-steal", loopsched.RunSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 1200, C: 1},
			Backend: loopsched.BackendLocal, LocalEngine: loopsched.EngineSteal,
			Workers: runWorkers(), Body: func(i int) {}, Ledger: "on",
		}},
		{"rpc", loopsched.RunSpec{
			Scheme: scheme, Workload: loopsched.Uniform{N: 1200, C: 1},
			Backend: loopsched.BackendRPC, Workers: runWorkers(),
			Kernel: func(i int) []byte { return nil }, Ledger: "on",
		}},
	} {
		backend := backend
		t.Run(backend.name, func(t *testing.T) {
			_, fetches := ledgerChunkSeq(t, backend.spec)
			if fetches != 0 {
				t.Errorf("ineligible scheme recorded %d ledger fetches", fetches)
			}
		})
	}
}

// TestLedgerHierarchyRun drives the two-level RPC runtime with Ledger
// "on", which it ignores: the run must tile the iteration space exactly
// and publish no ledger fetch. (The shard masters' step-table draws per
// super-chunk are pinned against the policy in internal/hier, where the
// stage inputs can be held fixed; end to end the root's super-chunk
// splits depend on request timing, so only the tiling is comparable.)
func TestLedgerHierarchyRun(t *testing.T) {
	for _, s := range stepDeterministicSchemes(t) {
		s := s
		t.Run(s.Name(), func(t *testing.T) {
			t.Parallel()
			_, fetches := ledgerChunkSeq(t, loopsched.RunSpec{
				Scheme: s, Workload: loopsched.Uniform{N: 3000, C: 1},
				Backend: loopsched.BackendRPC, Workers: runWorkers(),
				Kernel:    func(i int) []byte { return []byte{byte(i)} },
				Hierarchy: &loopsched.Hierarchy{Shards: 2},
				Ledger:    "on",
			})
			if fetches != 0 {
				t.Errorf("hierarchical ledger-on run recorded %d ledger fetches", fetches)
			}
		})
	}
}
