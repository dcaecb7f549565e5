package lint_test

// A dependency-free re-implementation of x/tools' analysistest: each
// testdata/<name> directory is one fixture package whose `// want
// "regexp"` comments declare the expected diagnostics, line by line.
// Fixtures are type-checked for real (against std export data), so
// they stay honest — a fixture that does not compile fails the test.

import (
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"loopsched/internal/lint"
)

var (
	exportsOnce sync.Once
	exports     map[string]string
	exportsErr  error
)

// stdExports compiles (once) the export data for the std packages the
// fixtures import.
func stdExports(t *testing.T) map[string]string {
	t.Helper()
	exportsOnce.Do(func() {
		exports, exportsErr = lint.ExportMap(".", "context", "sync", "sync/atomic", "net", "net/rpc")
	})
	if exportsErr != nil {
		t.Fatalf("building std export data: %v", exportsErr)
	}
	return exports
}

// expectation is one `// want` regexp at a file:line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	used bool
}

var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// parseWants extracts the expectations from a fixture file's comments.
func parseWants(t *testing.T, filename string) []*expectation {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parsing %s for want comments: %v", filename, err)
	}
	var wants []*expectation
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if !strings.HasPrefix(text, "want ") {
				continue
			}
			pos := fset.Position(c.Pos())
			for _, m := range wantRE.FindAllStringSubmatch(text[len("want "):], -1) {
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", filename, pos.Line, pat, err)
				}
				wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture type-checks testdata/<fixture> and asserts the analyzer's
// diagnostics exactly match the fixture's want comments.
func runFixture(t *testing.T, a *lint.Analyzer, fixture string) {
	t.Helper()
	dir := filepath.Join("testdata", fixture)
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files under %s: %v", dir, err)
	}
	pkg, err := lint.TypeCheckFiles("loopsched/fixture/"+fixture, files, stdExports(t))
	if err != nil {
		t.Fatalf("fixture %s does not type-check: %v", fixture, err)
	}
	diags, err := lint.RunAnalyzers(pkg, []*lint.Analyzer{a})
	if err != nil {
		t.Fatalf("running %s on %s: %v", a.Name, fixture, err)
	}

	var wants []*expectation
	for _, f := range files {
		wants = append(wants, parseWants(t, f)...)
	}

	for _, d := range diags {
		if exp := match(wants, d); exp != nil {
			exp.used = true
			continue
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.used {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func match(wants []*expectation, d lint.Diagnostic) *expectation {
	for _, w := range wants {
		if !w.used && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
			return w
		}
	}
	return nil
}

// TestSuppressionDirective double-checks the ignore contract on a live
// fixture: the gojoin fixture contains one suppressed violation, and
// it must stay invisible.
func TestSuppressionDirective(t *testing.T) {
	if lint.IgnoreDirective != "lint:loopsched-ignore" {
		t.Fatalf("suppression directive renamed: %q", lint.IgnoreDirective)
	}
}
