// Configured demonstrates occam configuration: ONE source file whose
// outermost process is PLACED PAR, compiled into one image per
// processor and run on a four-transputer pipeline.  This is the
// paper's development model: "once the logical behaviour of the
// program has been verified, the program may be configured for
// execution by a single transputer (low cost), or for execution by a
// network of transputers (high performance)."
//
//	go run ./examples/configured
package main

import (
	"fmt"
	"os"

	"transputer"
)

// A four-stage pipeline: generate, square, accumulate, report.  The
// replicated PLACED PAR compiles its PROCESSOR once for each of the
// four transputers, and the configuration IF that opens it, whose
// guards are constant once i is, gives each its stage; channels
// crossing processor boundaries are PLACEd on link addresses.
const program = `DEF n = 8:
PROC stage(CHAN in, CHAN out, VALUE rounds) =
  VAR v:
  SEQ i = [0 FOR rounds]
    SEQ
      in ? v
      out ! v * v
:
PLACED PAR i = [0 FOR 4]
  PROCESSOR i
    IF
      i = 0
        CHAN out:
        PLACE out AT LINK1OUT:
        SEQ k = [1 FOR n]
          out ! k
      i = 1
        CHAN in, out:
        PLACE in AT LINK0IN:
        PLACE out AT LINK1OUT:
        stage(in, out, n)
      i = 2
        CHAN in, out:
        PLACE in AT LINK0IN:
        PLACE out AT LINK1OUT:
        VAR v, sum:
        SEQ
          sum := 0
          SEQ k = [0 FOR n]
            SEQ
              in ? v
              sum := sum + v
          out ! sum
      TRUE
        CHAN in, screen:
        PLACE in AT LINK0IN:
        PLACE screen AT LINK1OUT:
        VAR total:
        SEQ
          in ? total
          screen ! 2
          screen ! total
          screen ! 4
`

func main() {
	images, err := transputer.CompileOccamConfigured(program, 4)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compile:", err)
		os.Exit(1)
	}
	fmt.Printf("configured %d processors from one source file\n", len(images))

	sys := transputer.NewSystem()
	nodes := make([]*transputer.Node, 4)
	for i := range nodes {
		nodes[i] = sys.MustAddTransputer(fmt.Sprintf("p%d", i), transputer.T424().WithMemory(64*1024))
	}
	// The pipeline wiring: each stage's link 1 feeds the next stage's
	// link 0; the last stage's link 1 talks to the host.
	for i := 0; i < 3; i++ {
		sys.MustConnect(nodes[i], 1, nodes[i+1], 0)
	}
	host, err := sys.AttachHost(nodes[3], 1, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for id, img := range images {
		if err := nodes[id].Load(img); err != nil {
			fmt.Fprintln(os.Stderr, "load:", err)
			os.Exit(1)
		}
	}

	rep := sys.Run(transputer.Second)
	if !rep.Settled || !host.Done {
		fmt.Fprintf(os.Stderr, "pipeline did not complete: %+v\n", rep)
		os.Exit(1)
	}
	want := int64(0)
	for i := int64(1); i <= 8; i++ {
		want += i * i
	}
	fmt.Printf("sum of squares 1..8 = %d (expected %d), in %v of simulated time\n",
		host.Values[0], want, rep.Time)
	if host.Values[0] != want {
		os.Exit(1)
	}
}
