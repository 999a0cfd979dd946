// Tchaos runs seeded chaos campaigns against the self-healing network
// stack: random fault plans over fixed topologies, checked for the
// invariants the stack promises (exactly-once in-order delivery while
// a path survives, a clean watchdog after quiesce, byte-identical
// outcomes at any worker count).  Every scenario runs from the .tnet
// file it renders, on tnet's build and run path, so a failing plan —
// shrunk to a minimal reproducing rule set and written out with
// -artifacts — replays the violation under tnet by construction.
//
// Usage:
//
//	tchaos [-topo ring8|grid3x3|all] [-seeds n] [-seed s]
//	       [-workers n] [-artifacts dir] [-v]
//
// -seeds n runs seeds 1..n; -seed s runs exactly one.  The exit code
// is 0 when every scenario holds its invariants, 1 otherwise.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"transputer/internal/chaos"
)

func main() {
	topo := flag.String("topo", "all", "topology to torture: ring8, grid3x3 or all")
	seeds := flag.Int("seeds", 25, "run seeds 1..n")
	seed := flag.Uint64("seed", 0, "run exactly this seed (overrides -seeds)")
	workers := flag.Int("workers", 4, "worker count for the determinism cross-check against one worker (a shard a node, whatever the host's CPU count; 1 skips the check)")
	artifacts := flag.String("artifacts", "", "write shrunken failing plans as .tnet files into this directory")
	verbose := flag.Bool("v", false, "log every scenario, not just failures")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: tchaos [flags]")
		os.Exit(2)
	}
	topos := chaos.Topologies()
	if *topo != "all" {
		topos = []string{*topo}
	}
	var seedList []uint64
	if *seed != 0 {
		seedList = []uint64{*seed}
	} else {
		for s := 1; s <= *seeds; s++ {
			seedList = append(seedList, uint64(s))
		}
	}
	failed := 0
	ran := 0
	for _, tp := range topos {
		for _, sd := range seedList {
			sc, err := chaos.Generate(tp, sd)
			if err != nil {
				fatal(err)
			}
			res, err := chaos.Run(sc, *workers)
			if err != nil {
				fatal(err)
			}
			ran++
			if res.Ok() {
				if *verbose {
					fmt.Printf("ok   %s seed=%d (%d rules, %d messages)\n",
						tp, sd, len(sc.Rules), len(sc.Messages))
				}
				continue
			}
			failed++
			fmt.Printf("FAIL %s seed=%d (%d rules, %d messages)\n", tp, sd, len(sc.Rules), len(sc.Messages))
			for _, f := range res.Failures {
				fmt.Printf("     %s\n", f)
			}
			if res.Shrunk != nil {
				fmt.Printf("     shrunk to %d rules\n", len(res.Shrunk.Rules))
				if *artifacts != "" {
					if err := os.MkdirAll(*artifacts, 0o755); err != nil {
						fatal(err)
					}
					path := filepath.Join(*artifacts, fmt.Sprintf("%s-seed%d.tnet", tp, sd))
					if err := os.WriteFile(path, []byte(res.Shrunk.TopologyFile()), 0o644); err != nil {
						fatal(err)
					}
					fmt.Printf("     wrote %s\n", path)
				}
			}
		}
	}
	fmt.Printf("tchaos: %d scenarios, %d failed\n", ran, failed)
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tchaos:", err)
	os.Exit(1)
}
