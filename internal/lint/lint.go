// Package lint is loopsched's domain-aware static-analysis suite: a
// small, dependency-free re-implementation of the golang.org/x/tools
// go/analysis model (Analyzer, Pass, Diagnostic) plus the four
// analyzers that earned their place — the paper's ⌈⌉/⌊⌋ chunk
// arithmetic discipline (chunkmath), goroutine joining (gojoin), mixed
// atomic/plain field access (atomicdiscipline), and decoded-count
// bounds in wire decoders (wirebounds). cmd/loopschedlint runs the
// suite as a `go vet -vettool`.
//
// The framework deliberately mirrors x/tools/go/analysis so the
// analyzers could be ported to the real thing verbatim if the module
// ever grows that dependency; docs/LINTING.md documents each
// analyzer's invariant and its pointer into the paper.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check, shaped like x/tools' analysis.Analyzer.
type Analyzer struct {
	// Name is the analyzer's identifier (also the suppression key).
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run performs the check, reporting findings via pass.Report.
	Run func(pass *Pass) error
}

// Pass carries one package's syntax and type information to an
// analyzer, exactly like x/tools' analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// report collects raw diagnostics; suppression is applied by
	// RunAnalyzers after the pass finishes.
	diags []Diagnostic
}

// Report records a finding at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// IgnoreDirective is the comment that suppresses a diagnostic on the
// same line or the line immediately above it:
//
//	//lint:loopsched-ignore analyzer reason...
//
// The analyzer name is mandatory ("all" matches every analyzer) and a
// human-readable reason is required — a bare directive suppresses
// nothing, so every suppression carries its justification.
const IgnoreDirective = "lint:loopsched-ignore"

// suppression is one parsed ignore directive.
type suppression struct {
	file     string
	line     int
	analyzer string
}

// collectSuppressions scans a file's comments for ignore directives.
func collectSuppressions(fset *token.FileSet, files []*ast.File) []suppression {
	var sups []suppression
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, IgnoreDirective) {
					continue
				}
				fields := strings.Fields(strings.TrimPrefix(text, IgnoreDirective))
				if len(fields) < 2 {
					continue // no analyzer+reason: directive is inert
				}
				pos := fset.Position(c.Pos())
				sups = append(sups, suppression{
					file:     pos.Filename,
					line:     pos.Line,
					analyzer: fields[0],
				})
			}
		}
	}
	return sups
}

// suppressed reports whether d is covered by a directive on its own
// line or the line above.
func suppressed(d Diagnostic, sups []suppression) bool {
	for _, s := range sups {
		if s.file != d.Pos.Filename {
			continue
		}
		if s.analyzer != "all" && s.analyzer != d.Analyzer {
			continue
		}
		if s.line == d.Pos.Line || s.line == d.Pos.Line-1 {
			return true
		}
	}
	return false
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	Path      string
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// RunAnalyzers applies the analyzers to the package and returns the
// unsuppressed diagnostics, ordered by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	sups := collectSuppressions(pkg.Fset, pkg.Files)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.TypesInfo,
		}
		if err := a.Run(pass); err != nil {
			return out, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
		}
		for _, d := range pass.diags {
			if !suppressed(d, sups) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Analyzer < out[j].Analyzer
	})
	return out, nil
}
