package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureModule writes a one-package module whose annotated function
// Hot holds body, and returns its root.
func fixtureModule(t *testing.T, body string) string {
	t.Helper()
	root := t.TempDir()
	src := `package hot

import "fmt"

var sink *int

var _ = fmt.Errorf

//lint:loopsched-hotpath
func Hot(n int) error {
` + body + `
	return nil
}
`
	files := map[string]string{
		"go.mod":     "module fixture\n\ngo 1.21\n",
		"hot/hot.go": src,
	}
	for name, data := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestEscapeCheck runs the guard over three versions of one annotated
// function: an allocation must fail the check (exit 2) and name the
// function; the same allocation under a hotalloc ignore directive, and
// a cold fmt.Errorf return, must pass — and the verbose listing must
// show the compiler did report them, so the pass is not vacuous.
func TestEscapeCheck(t *testing.T) {
	const alloc = "\tp := new(int)\n\t*p = n\n\tsink = p"
	for _, tc := range []struct {
		name, body string
		code       int
		want       string // in stderr when code is 2, else in stdout
	}{
		{"allocation", alloc, 2, "hot/hot.go:11: hot path Hot: new(int) escapes to heap"},
		{"suppressed", "\t//lint:loopsched-ignore hotalloc the fixture's deliberate allocation\n" + alloc,
			0, "[loopsched-ignore directive]"},
		{"cold error", "\tif n < 0 {\n\t\treturn fmt.Errorf(\"negative %d\", n)\n\t}", 0, "[cold error path]"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code, err := run(fixtureModule(t, tc.body), true, &stdout, &stderr)
			if err != nil {
				t.Fatal(err)
			}
			if code != tc.code {
				t.Fatalf("exit %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, &stdout, &stderr)
			}
			out := stdout.String()
			if code == 2 {
				out = stderr.String()
			}
			if !strings.Contains(out, tc.want) {
				t.Errorf("output lacks %q:\n%s", tc.want, out)
			}
		})
	}
}
