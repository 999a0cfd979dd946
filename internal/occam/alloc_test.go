package occam_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"transputer/internal/apps/dbsearch"
	"transputer/internal/occam"
	"transputer/internal/raceflag"
)

// searchSources is the 128-transputer search's node programs: the
// compiles that building dbsearch128 pays for.
func searchSources() []string {
	p := dbsearch.Defaults128()
	var srcs []string
	for r := 0; r < p.Rows; r++ {
		for c := 0; c < p.Cols; c++ {
			srcs = append(srcs, dbsearch.NodeSource(p, r, c))
		}
	}
	return srcs
}

// benchConst returns the value of a raw-string constant declared in
// internal/bench.
func benchConst(tb testing.TB, name string) string {
	tb.Helper()
	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", "bench", "bench.go"), nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	obj := file.Scope.Lookup(name)
	if obj == nil {
		tb.Fatalf("internal/bench declares no %s", name)
	}
	spec := obj.Decl.(*ast.ValueSpec)
	for i, id := range spec.Names {
		if id.Name != name {
			continue
		}
		lit, ok := spec.Values[i].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			break
		}
		src, err := strconv.Unquote(lit.Value)
		if err != nil {
			tb.Fatal(err)
		}
		return src
	}
	tb.Fatalf("internal/bench's %s is not a string literal", name)
	return ""
}

// BenchmarkCompile compiles the 128 node programs of the search array
// per iteration and reports the front end's cost per source line.
func BenchmarkCompile(b *testing.B) {
	srcs := searchSources()
	benchPerLine(b, func() error {
		for _, src := range srcs {
			if _, err := occam.Compile(src, occam.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
}

// BenchmarkCompileConfigured is BenchmarkCompile's twin: the same 128
// images, compiled as dbsearch.Build compiles them, from the array's one
// configured program.
func BenchmarkCompileConfigured(b *testing.B) {
	src := dbsearch.ArraySource(dbsearch.Defaults128())
	benchPerLine(b, func() error {
		_, err := occam.CompileConfigured(src, occam.Options{})
		return err
	})
}

// benchPerLine runs compile, which compiles the search array's 128
// images, b.N times and reports its cost per line of the 128 node
// programs, so that the two ways of compiling them compare.
func benchPerLine(b *testing.B, compile func() error) {
	lines := 0
	for _, src := range searchSources() {
		lines += strings.Count(src, "\n")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := compile(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(lines)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/line")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/line")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/line")
}

// compileCost is what one compile of src allocates: objects and bytes.
func compileCost(t *testing.T, src string) (allocs, bytes float64) {
	t.Helper()
	return allocCost(t, func() error {
		_, err := occam.Compile(src, occam.Options{})
		return err
	})
}

// allocCost is what one call of compile allocates: objects and bytes.
func allocCost(t *testing.T, compile func() error) (allocs, bytes float64) {
	t.Helper()
	const runs = 20
	if err := compile(); err != nil { // warm-up: one-time initialisation anywhere below
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := compile(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestCompileAllocGuard pins what one compile allocates, in objects and
// in bytes, for an interior node of the 128-transputer search and for
// internal/bench's ring program, a 25-line source.  The bytes catch a
// buffer sized from a constant rather than from the source compiled:
// one big enough for the search's programs is mostly spare on the
// ring's.
func TestCompileAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	p := dbsearch.Defaults128()
	for _, tc := range []struct {
		name              string
		src               string
		maxAllocs, maxKiB float64
	}{
		// 393 allocations, 31 712 bytes on linux/amd64 with Go 1.24.
		{"dbsearch node 3.5", dbsearch.NodeSource(p, 3, 5), 430, 34},
		// 162 allocations, 11 304 bytes.
		{"bench ring", benchConst(t, "ringSource"), 180, 12.5},
	} {
		allocs, bytes := compileCost(t, tc.src)
		t.Logf("%s: %.0f allocations, %.0f bytes a compile", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs {
			t.Errorf("%s: one compile makes %.0f allocations, more than %.0f", tc.name, allocs, tc.maxAllocs)
		}
		if bytes > tc.maxKiB*1024 {
			t.Errorf("%s: one compile allocates %.0f bytes, more than %.0f KiB", tc.name, bytes, tc.maxKiB)
		}
	}
}

// TestConfiguredArrayAllocGuard pins what one CompileConfigured of the
// 128-transputer search's configured program allocates, in objects and
// in bytes: one parse and 128 checks, sizings and code generations.
func TestConfiguredArrayAllocGuard(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	src := dbsearch.ArraySource(dbsearch.Defaults128())
	allocs, bytes := allocCost(t, func() error {
		_, err := occam.CompileConfigured(src, occam.Options{})
		return err
	})
	t.Logf("%.0f allocations, %.0f bytes a compile", allocs, bytes)
	// 22 334 allocations, 2 555 588 bytes on linux/amd64 with Go 1.24;
	// the 128 compiles of NodeSource's programs it replaces make 49 500
	// and 4.0 MB.
	const maxAllocs, maxKiB = 24500, 2750
	if allocs > maxAllocs {
		t.Errorf("one compile makes %.0f allocations, more than %d", allocs, maxAllocs)
	}
	if bytes > maxKiB*1024 {
		t.Errorf("one compile allocates %.0f bytes, more than %d KiB", bytes, maxKiB)
	}
}
