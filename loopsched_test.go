package loopsched_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"loopsched"
)

// ExampleChunkSequence reproduces the paper's Example 2: the TFSS
// chunk sizes for I = 1000, p = 4.
func ExampleChunkSequence() {
	seq, _ := loopsched.ChunkSequence(loopsched.NewTFSS(), 1000, 4)
	fmt.Println(seq[:8])
	// Output: [113 113 113 113 81 81 81 81]
}

// ExampleRun runs DTSS on the paper's 8-slave heterogeneous cluster
// in the simulator over a uniform loop and reports which scheme ran.
func ExampleRun() {
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme:   loopsched.NewDTSS(),
		Workload: loopsched.Uniform{N: 4000},
		Cluster:  loopsched.PaperCluster(8, false),
		Sim:      loopsched.SimParams{BaseRate: 1e5, BytesPerIter: 8},
	})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(rep.Scheme, rep.Iterations)
	// Output: DTSS 4000
}

func TestFacadeSchemeConstructors(t *testing.T) {
	cases := []struct {
		s    loopsched.Scheme
		name string
		dist bool
	}{
		{loopsched.NewStatic(), "S", false},
		{loopsched.NewWeightedStatic(), "WS", false},
		{loopsched.NewSS(), "SS", false},
		{loopsched.NewCSS(16), "CSS(16)", false},
		{loopsched.NewGSS(0), "GSS", false},
		{loopsched.NewTSS(), "TSS", false},
		{loopsched.NewFSS(), "FSS", false},
		{loopsched.NewFISS(0), "FISS", false},
		{loopsched.NewTFSS(), "TFSS", false},
		{loopsched.NewWF(), "WF", false},
		{loopsched.NewDTSS(), "DTSS", true},
		{loopsched.NewDFSS(), "DFSS", true},
		{loopsched.NewDFISS(0), "DFISS", true},
		{loopsched.NewDTFSS(), "DTFSS", true},
	}
	for _, c := range cases {
		if c.s.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.s.Name(), c.name)
		}
		if loopsched.IsDistributed(c.s) != c.dist {
			t.Errorf("%s: IsDistributed = %v", c.name, !c.dist)
		}
		seq, err := loopsched.ChunkSequence(c.s, 500, 3)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		sum := 0
		for _, v := range seq {
			sum += v
		}
		if sum != 500 {
			t.Errorf("%s: coverage %d", c.name, sum)
		}
	}
}

func TestFacadeLookup(t *testing.T) {
	s, err := loopsched.LookupScheme("DTSS")
	if err != nil || s.Name() != "DTSS" {
		t.Fatalf("LookupScheme: %v, %v", s, err)
	}
	if len(loopsched.SchemeNames()) < 12 {
		t.Errorf("SchemeNames too short: %v", loopsched.SchemeNames())
	}
}

func TestFacadeWorkloads(t *testing.T) {
	w := loopsched.NewConditional(100, 0.5, 2, 1, 7)
	if w.Len() != 100 {
		t.Errorf("conditional len %d", w.Len())
	}
	r := loopsched.Reorder(loopsched.LinearIncreasing{N: 10}, 2)
	if loopsched.OriginalIndex(r, 1) != 2 {
		t.Errorf("OriginalIndex = %d", loopsched.OriginalIndex(r, 1))
	}
}

func TestFacadeMandelbrot(t *testing.T) {
	p := loopsched.MandelbrotParams{
		Region: loopsched.PaperRegion, Width: 32, Height: 24, MaxIter: 50,
	}
	rows, work := loopsched.MandelbrotColumn(p, 16)
	if len(rows) != 24 || work < 24 {
		t.Errorf("column: %d rows, %d work", len(rows), work)
	}
	w := loopsched.MandelbrotWorkload(p)
	if w.Len() != 32 {
		t.Errorf("workload len %d", w.Len())
	}
	img := loopsched.RenderMandelbrot(p)
	if img.Bounds().Dx() != 32 {
		t.Errorf("image bounds %v", img.Bounds())
	}
}

func TestFacadeACP(t *testing.T) {
	m := loopsched.ACPModel{Scale: 10}
	if m.ACP(3, 4) != 7 {
		t.Errorf("ACP = %d", m.ACP(3, 4))
	}
}

func TestFacadeTreeSim(t *testing.T) {
	c := loopsched.PaperCluster(4, true)
	rep, err := loopsched.SimulateTree(c, loopsched.TreeOptions{Weighted: true},
		loopsched.Uniform{N: 1000}, loopsched.SimParams{BaseRate: 1e5, BytesPerIter: 8})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations != 1000 || rep.Scheme != "TreeS" {
		t.Errorf("report %+v", rep)
	}
}

func TestFacadeNewSurface(t *testing.T) {
	// Scheme extensions.
	if loopsched.NewAWF().Name() != "AWF" || loopsched.NewDGSS(1).Name() != "DGSS" ||
		loopsched.NewDCSS(4).Name() != "DCSS(4)" {
		t.Error("extension constructors broken")
	}
	if loopsched.WithMinChunk(loopsched.NewTSS(), 8).Name() != "TSS+min8" {
		t.Error("WithMinChunk broken")
	}
	if !strings.Contains(loopsched.DescribeSchemes("TFSS"), "TFSS") {
		t.Error("DescribeSchemes broken")
	}
	if len(loopsched.SchemeCatalogue()) < 15 {
		t.Error("catalogue too small")
	}

	// Workload extensions.
	if loopsched.NewRandom(10, 1, 1, 1).Len() != 10 {
		t.Error("NewRandom broken")
	}
	sorted := loopsched.SortDescending(loopsched.FromCosts{Costs: []float64{1, 3, 2}})
	if sorted.Cost(0) != 3 {
		t.Error("SortDescending broken")
	}
	var sb strings.Builder
	if err := loopsched.WriteCosts(&sb, loopsched.Uniform{N: 3}); err != nil {
		t.Fatal(err)
	}
	loaded, err := loopsched.ReadCosts(strings.NewReader(sb.String()), "x")
	if err != nil || loaded.Len() != 3 {
		t.Errorf("costs round trip: %v %d", err, loaded.Len())
	}

	// Load generators.
	if loopsched.ConstantLoad(1).ExtraAt(5) != 1 {
		t.Error("ConstantLoad broken")
	}
	if loopsched.WindowLoad(1, 2, 3).ExtraAt(1.5) != 3 {
		t.Error("WindowLoad broken")
	}
	if loopsched.StaircaseLoad(1, 2).ExtraAt(10) != 2 {
		t.Error("StaircaseLoad broken")
	}
	if len(loopsched.PoissonLoad(1, 1, 10, 1)) == 0 {
		t.Error("PoissonLoad broken")
	}
	if loopsched.SquareLoad(1, 0.5, 2, 1).ExtraAt(0.25) != 1 {
		t.Error("SquareLoad broken")
	}

	// Plots.
	if !strings.Contains(loopsched.PlotSpeedups("t", map[string][]loopsched.Speedup{
		"A": {{P: 1, Sp: 1}},
	}, 6), "A") {
		t.Error("PlotSpeedups broken")
	}
	if loopsched.Sparkline([]float64{1, 2, 3}, 3) == "" {
		t.Error("Sparkline broken")
	}

	// Affinity + shared bus + trace via the facade.
	c := loopsched.PaperCluster(2, false)
	w := loopsched.Uniform{N: 500}
	tr := &loopsched.Trace{}
	params := loopsched.SimParams{BaseRate: 1e5, BytesPerIter: 2, SharedBus: true, Trace: tr}
	rep, err := loopsched.Run(context.Background(), loopsched.RunSpec{
		Scheme: loopsched.NewAWF(), Workload: w, Cluster: c, Sim: params,
	})
	if err != nil || rep.Iterations != 500 {
		t.Fatalf("bus+trace sim: %v %+v", err, rep)
	}
	if tr.Len() == 0 || tr.Gantt(40) == "" {
		t.Error("trace not recorded")
	}
	afs, err := loopsched.SimulateAffinity(c, loopsched.AffinityOptions{}, w,
		loopsched.SimParams{BaseRate: 1e5, BytesPerIter: 2})
	if err != nil || afs.Scheme != "AFS" {
		t.Errorf("affinity: %v %+v", err, afs)
	}
}

// TestFacadeMPWorld drives the message-passing surface end to end.
func TestFacadeMPWorld(t *testing.T) {
	world, err := loopsched.NewWorld(3)
	if err != nil {
		t.Fatal(err)
	}
	kernel := func(i int) []byte { return []byte{byte(i)} }
	done := make(chan error, 2)
	for r := 1; r <= 2; r++ {
		go func(r int) {
			done <- loopsched.RunMPWorker(world[r], loopsched.MPWorkerOptions{Kernel: kernel})
		}(r)
	}
	results, rep, err := loopsched.RunMPMasterContext(context.Background(), world[0], loopsched.NewTSS(), 100, loopsched.MPMasterOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if rep.Iterations != 100 || results[42][0] != 42 {
		t.Errorf("mp run: %+v", rep)
	}
	if loopsched.AnySource != -1 || loopsched.AnyTag != -1 {
		t.Error("wildcards broken")
	}
}

func TestFacadeMandelbrotHelpers(t *testing.T) {
	p := loopsched.MandelbrotParams{Region: loopsched.PaperRegion, Width: 8, Height: 6, MaxIter: 30}
	cols := make([][]byte, 8)
	for c := range cols {
		cols[c] = loopsched.MandelbrotShadedColumn(p, c)
	}
	img := loopsched.AssembleMandelbrot(p, cols)
	if img.Bounds().Dx() != 8 {
		t.Error("AssembleMandelbrot broken")
	}
}

func TestFacadeFormatTable(t *testing.T) {
	out := loopsched.FormatTable("t", []loopsched.Report{{
		Scheme: "TSS", Tp: 1, PerWorker: []loopsched.Times{{Comm: 1, Wait: 2, Comp: 3}},
	}})
	if out == "" {
		t.Error("empty table")
	}
}
