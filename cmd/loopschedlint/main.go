// Command loopschedlint runs loopsched's domain-aware analyzer suite
// (internal/lint): chunkmath, gojoin, atomicdiscipline and wirebounds
// — the chunk-math, goroutine-join, atomic-access and wire-decoding
// invariants behind the paper's work-conservation argument and the
// runtime's safety on untrusted input, machine-checked.
//
// It is a vet tool, and nothing else:
//
//	go vet -vettool=$(make -s lint-tool) ./...
//
// It implements cmd/go's (unpublished) vet tool protocol: -V=full
// and -flags queries, then one invocation per package with a JSON
// .cfg file naming the sources and the export data of every
// dependency. See docs/LINTING.md for the analyzers, their invariants,
// and the //lint:loopsched-ignore suppression directive.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"loopsched/internal/lint"
)

var (
	versionFlag = flag.String("V", "", "print version information (cmd/go tool protocol)")
	printFlags  = flag.Bool("flags", false, "print analyzer flags in JSON (cmd/go vet protocol)")
)

func main() {
	flag.Parse()
	switch {
	case *versionFlag != "":
		printVersion()
	case *printFlags:
		// The suite has no flags of its own.
		fmt.Println("[]")
	case flag.NArg() == 1 && strings.HasSuffix(flag.Arg(0), ".cfg"):
		os.Exit(runUnit(flag.Arg(0)))
	default:
		fmt.Fprintln(os.Stderr, "usage: go vet -vettool=$(command -v loopschedlint) [packages]")
		os.Exit(1)
	}
}

// printVersion implements the -V=full handshake: cmd/go derives the
// vet cache key from the buildID, so it hashes this executable.
func printVersion() {
	progname := filepath.Base(os.Args[0])
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// vetConfig is the JSON payload cmd/go hands a vettool for each
// package unit (the shape x/tools' unitchecker consumes).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyses one package unit and returns the exit code (vet
// convention: 2 when findings exist).
func runUnit(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "loopschedlint: parsing %s: %v\n", cfgPath, err)
		return 1
	}
	// The driver expects a facts file regardless of findings. The suite
	// keeps all its facts intra-package, so the file is an empty stub.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	// The suite's invariants target production code; test files are
	// excluded.
	var files []string
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			files = append(files, f)
		}
	}
	if len(files) == 0 {
		return 0
	}

	exports := make(map[string]string, len(cfg.ImportMap))
	for path, canonical := range cfg.ImportMap {
		if f, ok := cfg.PackageFile[canonical]; ok {
			exports[path] = f
		}
	}
	for canonical, f := range cfg.PackageFile {
		if _, ok := exports[canonical]; !ok {
			exports[canonical] = f
		}
	}

	pkg, err := lint.TypeCheckFiles(cfg.ImportPath, files, exports)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	diags, err := lint.RunAnalyzers(pkg, lint.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
