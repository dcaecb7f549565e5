// Package hotpath locates the functions the repo has declared to be on
// the chunk hot path via the //lint:loopsched-hotpath directive. The
// two zero-allocation guards share this one scanner so they can never
// drift apart:
//
//   - cmd/escapecheck, the static guard, checks the compiler's own
//     escape analysis (go build -gcflags=-m) over every annotated
//     function;
//   - the per-package alloc-guard test tables (internal/steal,
//     internal/wire, …), the dynamic guard, are checked against the
//     annotations (TableErrors), so annotating an exported function
//     automatically demands an AllocsPerRun guard for it.
//
// The directive goes on its own line inside the function's doc
// comment (or on the line immediately above an undocumented one):
//
//	// Push appends an assignment at the owner's end.
//	//lint:loopsched-hotpath
//	func (d *Deque) Push(a sched.Assignment) bool {
//
// Like all //lint: directives it is invisible to go doc.
package hotpath

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Directive marks a function as hot-path: it must not allocate on any
// steady-state execution. The comment form is //lint:loopsched-hotpath
// (no space after the slashes, per Go directive convention).
const Directive = "lint:loopsched-hotpath"

// Func describes one annotated function.
type Func struct {
	// Name is the display form: "Push" for plain functions,
	// "(*Deque).Push" for pointer-receiver methods, "(Kind).String"
	// for value-receiver methods.
	Name string
	// Recv is the bare receiver type name ("" for plain functions).
	Recv string
	// Exported reports whether the function identifier is exported.
	Exported bool
	// File is the path as given to the parser; Line and EndLine span
	// the declaration (doc comment excluded).
	File    string
	Line    int
	EndLine int
}

// isDirective reports whether a comment is the hot-path directive.
func isDirective(c *ast.Comment) bool {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	return text == Directive || strings.HasPrefix(text, Directive+" ")
}

// annotatedDecls returns the FuncDecls in the parsed file that carry
// the hot-path directive (in their doc comment, or on the line
// directly above). The file must have been parsed with
// parser.ParseComments.
func annotatedDecls(fset *token.FileSet, f *ast.File) []*ast.FuncDecl {
	lines := map[int]bool{}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if isDirective(c) {
				lines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		doc := false
		if fn.Doc != nil {
			for _, c := range fn.Doc.List {
				doc = doc || isDirective(c)
			}
		}
		if doc || lines[fset.Position(fn.Pos()).Line-1] {
			out = append(out, fn)
		}
	}
	return out
}

// recv returns the bare receiver type name ("" for functions) and
// whether the receiver is a pointer.
func recv(fn *ast.FuncDecl) (string, bool) {
	if fn.Recv == nil || len(fn.Recv.List) != 1 {
		return "", false
	}
	t := fn.Recv.List[0].Type
	star, ptr := t.(*ast.StarExpr)
	if ptr {
		t = star.X
	}
	// Generic receivers (IndexExpr) do not occur in this module.
	if id, ok := t.(*ast.Ident); ok {
		return id.Name, ptr
	}
	return "", false
}

// Annotated parses every non-test .go file in dir (one package
// directory, not recursive) and returns its annotated functions,
// sorted by name.
func Annotated(dir string) ([]Func, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("hotpath: %w", err)
	}
	fset := token.NewFileSet()
	var out []Func
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("hotpath: %w", err)
		}
		for _, fn := range annotatedDecls(fset, f) {
			display := fn.Name.Name
			r, ptr := recv(fn)
			switch {
			case ptr:
				display = fmt.Sprintf("(*%s).%s", r, display)
			case r != "":
				display = fmt.Sprintf("(%s).%s", r, display)
			}
			out = append(out, Func{
				Name:     display,
				Recv:     r,
				Exported: ast.IsExported(fn.Name.Name),
				File:     path,
				Line:     fset.Position(fn.Pos()).Line,
				EndLine:  fset.Position(fn.End()).Line,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}
