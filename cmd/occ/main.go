// Occ compiles occam programs to transputer code images.
//
// Usage:
//
//	occ [-w words] [-o out.tix] [-S] program.occ
//
// With -S the listing is disassembled to standard output instead of
// writing a binary image.  The image format is the simple container
// understood by trun and tnet.
//
// A program whose outermost process is PLACED PAR is a configuration:
// it compiles to one image per PROCESSOR, named <base>.p<N>.tix, and
// -o and -S do not apply.
package main

import (
	"flag"
	"fmt"
	"os"

	"transputer/internal/isa"
	"transputer/internal/occam"
	"transputer/internal/tool"
)

func main() {
	wordBytes := flag.Int("w", 4, "word length in bytes (4 for T424, 2 for T222)")
	out := flag.String("o", "", "output image path (default: input with .tix)")
	listing := flag.Bool("S", false, "print a disassembly listing instead of writing an image")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: occ [-w words] [-o out.tix] [-S] program.occ")
		os.Exit(2)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	comp, err := occam.Compile(string(src), occam.Options{WordBytes: *wordBytes})
	if err != nil {
		// Compile refuses PLACED PAR; CompileConfigured takes it as the
		// outermost process, and otherwise fails as Compile did.
		procs, err := occam.CompileConfigured(string(src), occam.Options{WordBytes: *wordBytes})
		if err != nil {
			fatal(err)
		}
		base := replaceExt(path, "")
		for _, p := range procs {
			dst := fmt.Sprintf("%s.p%d.tix", base, p.ID)
			if err := tool.WriteImage(dst, p.Compiled.Image); err != nil {
				fatal(err)
			}
			fmt.Printf("%s: PROCESSOR %d, %d bytes -> %s\n",
				path, p.ID, len(p.Compiled.Image.Code), dst)
		}
		return
	}
	if *listing {
		fmt.Printf("; %s: %d bytes of code, workspace %d above / %d below\n",
			path, len(comp.Image.Code), comp.Above, comp.Below)
		fmt.Print(isa.Sdisassemble(comp.Image.Code))
		return
	}
	dst := *out
	if dst == "" {
		dst = replaceExt(path, ".tix")
	}
	if err := tool.WriteImage(dst, comp.Image); err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %d bytes of code -> %s\n", path, len(comp.Image.Code), dst)
}

func replaceExt(path, ext string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '.' {
			return path[:i] + ext
		}
		if path[i] == '/' {
			break
		}
	}
	return path + ext
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "occ:", err)
	os.Exit(1)
}
