package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
)

// The loader type-checks packages from source without any dependency
// beyond the go toolchain itself: export data for every import comes
// either from the .cfg go vet hands cmd/loopschedlint or from
// `go list -export` (ExportMap, for the fixture harness), and
// importer.ForCompiler turns that map into a types.Importer.

// exportCache memoizes ExportMap per (dir, patterns): the `go list
// -export` walk compiles every dependency and dominates a fixture
// run's wall time. Sources are assumed not to change during one
// process's lifetime.
var exportCache = struct {
	sync.Mutex
	m map[string]map[string]string
}{m: map[string]map[string]string{}}

// ExportMap compiles the patterns (and their dependencies) and returns
// importPath → export-data file. The fixture harness uses it to
// type-check testdata packages against the standard library.
func ExportMap(dir string, patterns ...string) (map[string]string, error) {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	key := dir + "\x00" + strings.Join(patterns, "\x00")
	exportCache.Lock()
	cached, ok := exportCache.m[key]
	exportCache.Unlock()
	if ok {
		return cached, nil
	}
	args := append([]string{"list", "-e", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, errb.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(&out)
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding: %v", patterns, err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	exportCache.Lock()
	exportCache.m[key] = exports
	exportCache.Unlock()
	return exports, nil
}

// TypeCheckFiles parses and type-checks one package from explicit file
// paths against the export map. cmd/loopschedlint uses it with the .cfg's
// file lists; the fixture harness uses it with a testdata directory
// listing.
func TypeCheckFiles(path string, filenames []string, exports map[string]string) (*Package, error) {
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("lint: no export data for %q", path)
		}
		return os.Open(f)
	})
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %v", path, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", "amd64")}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: %s: typecheck: %v", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Pkg: tpkg, TypesInfo: info}, nil
}
