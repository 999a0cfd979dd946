// tvet is the repo's vet tool: it runs the determinism and protocol
// analyzers of internal/analysis over one package at a time, as the go
// command asks.
//
// Usage (driven by the go command):
//
//	go build -o tvet ./cmd/tvet
//	go vet -vettool=$PWD/tvet ./...
//
// The go command asks a vet tool three things.  "-V=full" wants a line
// identifying the build, which keys its cache of vet results; "-flags"
// wants the tool's flags as JSON (tvet has none); and a path ending in
// "vet.cfg" names a JSON description of one package — its source files
// and the compiler's export data for everything it imports — to check.
//
// Findings are suppressed per site with
// "//tvet:ignore <analyzer> <reason>"; see DESIGN.md §18.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	tvet "transputer/internal/analysis"
	"transputer/internal/analysis/tvetutil"
)

func main() {
	if len(os.Args) != 2 {
		usage()
	}
	switch arg := os.Args[1]; {
	case arg == "-V=full":
		if err := printVersion(); err != nil {
			fatal(err)
		}
	case arg == "-flags":
		fmt.Println("[]")
	case strings.HasSuffix(arg, ".cfg"):
		os.Exit(vet(arg))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: go vet -vettool=/path/to/tvet packages")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tvet:", err)
	os.Exit(1)
}

// printVersion answers -V=full.  The go command caches vet results
// under the ID printed here, so it must change whenever an analyzer
// does: a fixed string would keep serving a stale "clean".  Hashing the
// executable is the one ID that follows every rebuild.
func printVersion() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return err
	}
	// "devel" tells the go command to take the ID from the last field.
	fmt.Printf("tvet version devel buildID=%x\n", h.Sum(nil))
	return nil
}

// config is what tvet reads of the vet.cfg the go command writes (the
// vetConfig of cmd/go/internal/work).
type config struct {
	Compiler    string
	ImportPath  string
	GoVersion   string
	GoFiles     []string
	ImportMap   map[string]string // import path in source -> package path
	PackageFile map[string]string // package path -> export data file
	VetxOnly    bool              // a dependency: wanted for its facts, not its findings
	VetxOutput  string            // where the go command expects this package's facts

	SucceedOnTypecheckFailure bool // the compiler will report it; stay quiet
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// vet checks the package cfgFile describes and returns the exit code:
// findings and type errors on standard error and 1, or silence and 0.
func vet(cfgFile string) int {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fatal(err)
	}
	var cfg config
	if err := json.Unmarshal(data, &cfg); err != nil {
		fatal(fmt.Errorf("%s: %v", cfgFile, err))
	}

	// No analyzer exports facts, so every package's are empty — written
	// so the go command can cache them — and a package wanted only for
	// its facts is done.
	if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
		fatal(err)
	}
	if cfg.VetxOnly {
		return 0
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return typecheckFailure(&cfg, err)
		}
		files = append(files, f)
	}

	exports := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	conf := types.Config{
		GoVersion: cfg.GoVersion,
		Sizes:     types.SizesFor(cfg.Compiler, build.Default.GOARCH),
		Importer: importerFunc(func(path string) (*types.Package, error) {
			resolved, ok := cfg.ImportMap[path]
			if !ok {
				return nil, fmt.Errorf("cannot resolve import %q", path)
			}
			return exports.Import(resolved)
		}),
	}
	info := tvetutil.NewInfo()
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		return typecheckFailure(&cfg, err)
	}

	var diags []tvetutil.Diagnostic
	for _, a := range tvet.All {
		diags = append(diags, tvetutil.Run(a, fset, files, pkg, info)...)
	}
	// One file set, filled in GoFiles order: Pos orders by file, then offset.
	sort.SliceStable(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: %s\n", fset.Position(d.Pos), d.Message)
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// typecheckFailure reports a package that does not parse or type-check.
// An unchecked package must not pass for a clean one, so this fails
// unless the go command said the compiler will report the error itself.
func typecheckFailure(cfg *config, err error) int {
	if cfg.SucceedOnTypecheckFailure {
		return 0
	}
	fmt.Fprintln(os.Stderr, "tvet:", err)
	return 1
}
