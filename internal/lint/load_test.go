package lint_test

import (
	"testing"

	"loopsched/internal/lint"
)

// TestExportMapMemoized pins the fixture harness's export cache: a
// second ExportMap with the same (dir, patterns) must not re-run
// `go list`.
func TestExportMapMemoized(t *testing.T) {
	a, err := lint.ExportMap("../..", "context")
	if err != nil {
		t.Fatalf("first ExportMap: %v", err)
	}
	b, err := lint.ExportMap("../..", "context")
	if err != nil {
		t.Fatalf("second ExportMap: %v", err)
	}
	if len(a) == 0 {
		t.Fatal("empty export map")
	}
	// Memoized calls share one underlying map: a write through the
	// first result must be visible through the second.
	a["__probe__"] = "x"
	if b["__probe__"] != "x" {
		t.Error("ExportMap not memoized: second call returned a distinct map")
	}
	delete(a, "__probe__")
}
