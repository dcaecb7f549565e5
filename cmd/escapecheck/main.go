// Command escapecheck is the static zero-allocation guard. It finds
// every package with //lint:loopsched-hotpath annotations, compiles
// them with -gcflags=-m, and fails if the compiler reports a heap
// allocation ("escapes to heap" / "moved to heap") inside an annotated
// function's span that neither a //lint:loopsched-ignore hotalloc
// directive nor the cold-error exemption (a line calling fmt.Errorf or
// errors.New) accounts for. The compiler's escape analysis is the
// ground truth for what allocates; the hotguard_test.go AllocsPerRun
// tables are the dynamic guard beside it.
//
// The go build cache replays compile diagnostics, so repeat runs are
// cheap; no -a rebuild is needed.
//
//	escapecheck [-root dir] [-v]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"loopsched/internal/hotpath"
)

// span is one annotated function's file region.
type span struct {
	name       string
	line, last int
}

// escapeLine matches the compiler's allocation diagnostics. Parameter
// leak notes ("leaking param") describe flow, not an allocation, and
// are excluded by construction.
var escapeLine = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*(?:escapes to heap|moved to heap).*)$`)

func main() {
	root := flag.String("root", ".", "module root to scan for annotated packages")
	verbose := flag.Bool("v", false, "list every annotated function and its verdict")
	flag.Parse()
	code, err := run(*root, *verbose, os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "escapecheck:", err)
	}
	os.Exit(code)
}

// run checks the module at root and returns the exit code: 0 clean, 2
// when an annotated function allocates unaccounted, 1 on error.
func run(root string, verbose bool, stdout, stderr io.Writer) (int, error) {
	pkgs, spans, err := annotatedPackages(root)
	if err != nil {
		return 1, err
	}
	if len(pkgs) == 0 {
		return 1, fmt.Errorf("no //%s annotations under %s", hotpath.Directive, root)
	}
	if verbose {
		for _, file := range sortedKeys(spans) {
			for _, s := range spans[file] {
				fmt.Fprintf(stdout, "# %s:%d %s\n", file, s.line, s.name)
			}
		}
	}

	args := append([]string{"build", "-gcflags=-m"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return 1, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}

	var bad []string
	sc := bufio.NewScanner(strings.NewReader(string(out)))
	for sc.Scan() {
		m := escapeLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		file, msg := m[1], m[3]
		line, _ := strconv.Atoi(m[2])
		fn := inSpan(spans[file], line)
		if fn == "" {
			continue // allocation outside every annotated hot path
		}
		why, allowed := allowedAt(filepath.Join(root, file), line)
		if allowed {
			if verbose {
				fmt.Fprintf(stdout, "ok   %s:%d (%s): %s [%s]\n", file, line, fn, msg, why)
			}
			continue
		}
		bad = append(bad, fmt.Sprintf("%s:%d: hot path %s: %s (compiler escape analysis — remove the allocation, or annotate it with //lint:loopsched-ignore hotalloc <reason> if intended)", file, line, fn, msg))
	}

	if len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(stderr, b)
		}
		return 2, nil
	}
	fmt.Fprintf(stdout, "escapecheck: %d packages, no unaccounted heap allocation on any annotated hot path\n", len(pkgs))
	return 0, nil
}

// annotatedPackages walks the module for package directories holding
// hot-path annotations, returning their ./-relative import patterns
// and, per root-relative file path, the annotated spans.
func annotatedPackages(root string) ([]string, map[string][]span, error) {
	var pkgs []string
	spans := map[string][]span{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if name == "testdata" || name == "bin" || (strings.HasPrefix(name, ".") && path != root) {
			return filepath.SkipDir
		}
		funcs, err := hotpath.Annotated(path)
		if err != nil || len(funcs) == 0 {
			return nil // a dir without .go files errors; either way skip
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, "./"+filepath.ToSlash(rel))
		for _, fn := range funcs {
			file, err := filepath.Rel(root, fn.File)
			if err != nil {
				return err
			}
			file = filepath.ToSlash(file)
			spans[file] = append(spans[file], span{name: fn.Name, line: fn.Line, last: fn.EndLine})
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(pkgs)
	return pkgs, spans, nil
}

// inSpan returns the annotated function containing line, or "".
func inSpan(spans []span, line int) string {
	for _, s := range spans {
		if s.line <= line && line <= s.last {
			return s.name
		}
	}
	return ""
}

// allowedAt reports whether an in-span allocation at file:line is
// accounted for: a //lint:loopsched-ignore hotalloc directive on the
// line or the line above, or a cold error construction (fmt.Errorf /
// errors.New), which only a failing call pays for.
func allowedAt(file string, line int) (string, bool) {
	lines, err := fileLines(file)
	if err != nil || line < 1 || line > len(lines) {
		return "", false
	}
	text := lines[line-1]
	if strings.Contains(text, "fmt.Errorf") || strings.Contains(text, "errors.New") {
		return "cold error path", true
	}
	for _, l := range []int{line, line - 1} {
		if l >= 1 && ignoresHotalloc(lines[l-1]) {
			return "loopsched-ignore directive", true
		}
	}
	return "", false
}

// ignoresHotalloc matches the suppression grammar: the hotalloc (or
// all) key right after //lint:loopsched-ignore, then a reason.
func ignoresHotalloc(text string) bool {
	i := strings.Index(text, "//lint:loopsched-ignore")
	if i < 0 {
		return false
	}
	rest := strings.Fields(text[i+len("//lint:loopsched-ignore"):])
	return len(rest) > 1 && (rest[0] == "hotalloc" || rest[0] == "all")
}

var lineCache = map[string][]string{}

func fileLines(path string) ([]string, error) {
	if l, ok := lineCache[path]; ok {
		return l, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	l := strings.Split(string(data), "\n")
	lineCache[path] = l
	return l, nil
}

func sortedKeys(m map[string][]span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
