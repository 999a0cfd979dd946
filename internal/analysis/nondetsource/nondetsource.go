// Package nondetsource bans reading nondeterministic inputs — wall
// clocks, the global random source, the process environment — inside
// the deterministic packages.
//
// The simulator owns its clock (sim virtual time) and its entropy
// (seeded splitmix64 plans, internal/fault); anything else makes a run
// unrepeatable.  time.Now and friends, the unseeded package-level
// math/rand functions, and os.Getenv-driven behavior are therefore
// compile-time errors in simulation paths.  Wall-clock diagnostics
// that are documented as partition-dependent (EngineStats) carry a
// //tvet:ignore with that rationale.
package nondetsource

import (
	"go/ast"
	"go/types"

	"transputer/internal/analysis/tvetutil"
)

const doc = `ban wall clocks, unseeded rand and environment reads in deterministic packages

Simulation paths run on virtual time and seeded entropy only: time.Now,
the global math/rand functions and os.Getenv make runs unrepeatable and
break the byte-identity contracts (workers, partitions, block cache).
Use sim virtual clocks and the seeded splitmix64 plans instead, or
suppress a diagnostics-only use with //tvet:ignore nondetsource <reason>.`

// Analyzer is the nondetsource analyzer.
var Analyzer = &tvetutil.Analyzer{
	Name: "nondetsource",
	Doc:  doc,
	Run:  run,
}

// banned maps package path -> function name -> complaint.  An empty
// name set bans every package-level function of the package.
var banned = map[string]map[string]string{
	"time": {
		"Now":       "wall clock",
		"Since":     "wall clock",
		"Until":     "wall clock",
		"After":     "wall-clock timer",
		"Tick":      "wall-clock ticker",
		"NewTimer":  "wall-clock timer",
		"NewTicker": "wall-clock ticker",
		"Sleep":     "wall-clock sleep",
	},
	"os": {
		"Getenv":    "environment read",
		"LookupEnv": "environment read",
		"Environ":   "environment read",
	},
}

// randAllowed lists the math/rand package-level functions that do not
// consult the unseeded global source.
var randAllowed = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true,
}

func run(pass *tvetutil.Pass) {
	if !tvetutil.IsDetPackage(pass.Pkg.Path()) {
		return
	}
	ig := tvetutil.NewIgnorer(pass)
	tvetutil.WalkFiles(pass, func(n ast.Node, stack []ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, ok := tvetutil.Callee(pass.TypesInfo, call).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return true // methods: a *rand.Rand is explicitly seeded
		}
		path, name := fn.Pkg().Path(), fn.Name()
		if what, bad := banned[path][name]; bad {
			tvetutil.Report(pass, ig, call.Pos(),
				"%s.%s: %s in a deterministic package; use the sim virtual clock / seeded plans (or //tvet:ignore nondetsource <reason>)",
				path, name, what)
			return true
		}
		if (path == "math/rand" || path == "math/rand/v2") && !randAllowed[name] {
			tvetutil.Report(pass, ig, call.Pos(),
				"%s.%s uses the global random source in a deterministic package; use a seeded source (internal/fault splitmix64)",
				path, name)
		}
		return true
	})
}
