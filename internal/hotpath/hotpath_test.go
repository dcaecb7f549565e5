package hotpath_test

import (
	"os"
	"path/filepath"
	"testing"

	"loopsched/internal/hotpath"
)

func writeFixture(t *testing.T, name, src string) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestAnnotatedDocAndBareForms(t *testing.T) {
	dir := writeFixture(t, "a.go", `package a

// Push is documented; the directive rides in the doc comment.
//lint:loopsched-hotpath
func (d *Deque) Push(v int) bool { return true }

//lint:loopsched-hotpath
func bare() {}

// Pop has no directive.
func (d Deque) Pop() {}

type Deque struct{}
`)
	fns, err := hotpath.Annotated(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 2 {
		t.Fatalf("annotated = %v, want 2 entries", fns)
	}
	// Sorted by name: "(*Deque).Push" < "bare".
	if fns[0].Name != "(*Deque).Push" || fns[0].Recv != "Deque" || !fns[0].Exported {
		t.Errorf("first = %+v, want (*Deque).Push exported", fns[0])
	}
	if fns[1].Name != "bare" || fns[1].Exported {
		t.Errorf("second = %+v, want unexported bare", fns[1])
	}
	if fns[0].Line <= 0 || fns[0].EndLine < fns[0].Line {
		t.Errorf("bad span %d..%d", fns[0].Line, fns[0].EndLine)
	}
}

func TestAnnotatedSkipsTestFilesAndStrayComments(t *testing.T) {
	dir := writeFixture(t, "a.go", `package a

// A directive not attached to a declaration annotates nothing:
//lint:loopsched-hotpath

var x int

func plain() {}
`)
	if err := os.WriteFile(filepath.Join(dir, "a_test.go"), []byte(`package a

//lint:loopsched-hotpath
func helperInTest() {}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	fns, err := hotpath.Annotated(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fns) != 0 {
		t.Fatalf("annotated = %v, want none", fns)
	}
}

// TestRealPackagesHaveAnnotations pins the inventory sources: the
// packages docs/LINTING.md lists as annotated must actually carry
// directives, so the doc, escapecheck and the guard tables stay
// grounded.
func TestRealPackagesHaveAnnotations(t *testing.T) {
	for _, dir := range []string{"../steal", "../wire", "../telemetry", "../exec"} {
		fns, err := hotpath.Annotated(dir)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		if len(fns) == 0 {
			t.Errorf("%s: no //lint:loopsched-hotpath annotations found", dir)
		}
	}
}
