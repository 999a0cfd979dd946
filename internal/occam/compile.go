package occam

import (
	"fmt"

	"transputer/internal/asm"
	"transputer/internal/core"
	"transputer/internal/isa"
)

// Options configures a compilation.
type Options struct {
	// WordBytes is the target word length in bytes: 4 (T424) or 2
	// (T222).  Defaults to 4.
	WordBytes int
}

// Compiled is the result of compiling an occam program.
type Compiled struct {
	Image core.Image
	// Above and Below are the main frame's workspace requirements, in
	// words.
	Above, Below int
}

// Compile translates an occam program into a loadable image.  The
// program's process begins execution as a single low-priority process;
// when it terminates, the instruction stream ends with stop process,
// leaving the machine idle.
func Compile(src string, opt Options) (*Compiled, error) {
	if err := checkOptions(&opt); err != nil {
		return nil, err
	}
	prog, tokens, perr := parse(src)
	if perr != nil {
		return nil, perr
	}
	return compileProgram(prog, tokens, opt)
}

func checkOptions(opt *Options) error {
	if opt.WordBytes == 0 {
		opt.WordBytes = 4
	}
	if opt.WordBytes != 2 && opt.WordBytes != 4 {
		return fmt.Errorf("occam: unsupported word length %d bytes", opt.WordBytes)
	}
	return nil
}

// Processor is one transputer's share of a configured program.
type Processor struct {
	ID       int64
	Compiled *Compiled
}

// CompileConfigured compiles a program whose outermost process is
// PLACED PAR — the occam configuration construct the paper's model
// rests on: "externally, a collection of processes may be configured
// for a network of transputers.  Each transputer executes a component
// process, and occam channels are allocated to links."  Declarations
// preceding the PLACED PAR (DEFs and PROCs) are shared by every
// component; each PROCESSOR block is compiled to its own image, with
// its channels PLACEd on link addresses.  A replicated PLACED PAR
// i = [base FOR count] compiles its one PROCESSOR once for each value
// of i, in order, with i a constant; a configuration IF at the head of
// that PROCESSOR's body compiles only the branch the processor takes.
// A program without PLACED PAR compiles to a single processor
// numbered 0.
func CompileConfigured(src string, opt Options) ([]Processor, error) {
	if err := checkOptions(&opt); err != nil {
		return nil, err
	}
	prog, tokens, perr := parse(src)
	if perr != nil {
		return nil, perr
	}
	// Peel shared declarations off the front.
	var shared []decl
	body := prog
	for {
		dp, ok := body.(*declProc)
		if !ok {
			break
		}
		shared = append(shared, dp.decls...)
		body = dp.body
	}
	pp, ok := body.(*placedPar)
	if !ok {
		comp, err := compileProgram(prog, tokens, opt)
		if err != nil {
			return nil, err
		}
		return []Processor{{ID: 0, Compiled: comp}}, nil
	}
	rep, base, n := pp.rep, int64(0), int64(len(pp.components))
	if rep != nil {
		var err error
		if base, n, err = foldReplicator(rep, shared, opt); err != nil {
			return nil, err
		}
	}

	out := make([]Processor, 0, n)
	seen := make(map[int64]int64, n) // each processor number's component, or value of i
	// The processor number is folded by smuggling it through a DEF in
	// the component's compilation.  A replicated PLACED PAR's one
	// component is wrapped once, and i's DEF, ahead of the number's,
	// takes each value in turn.
	iVal := &numberExpr{}
	var synth process
	var idDecl *defDecl
	for k := int64(0); k < n; k++ {
		comp, which := &pp.components[0], base+k
		if rep == nil {
			comp = &pp.components[k]
		}
		if k == 0 || rep == nil {
			idDecl = &defDecl{pos: comp.pos, name: processorNumber, value: comp.processor}
			own := []decl{idDecl}
			if rep != nil {
				iVal.pos = rep.pos
				own = []decl{&defDecl{pos: rep.pos, name: rep.name, value: iVal}, idDecl}
			}
			synth = &declProc{pos: comp.pos, decls: shared, body: &declProc{pos: comp.pos, decls: own, body: comp.body}}
		}
		iVal.val = which
		compiled, err := compileProgram(synth, pp.tokens+comp.tokens, opt)
		if err != nil {
			return nil, err
		}
		id := idDecl.sym.value
		if prev, dup := seen[id]; dup {
			if rep != nil {
				return nil, errf(comp.line, comp.col, "PROCESSOR %d configured twice: for %s = %d and %s = %d",
					id, rep.name, prev, rep.name, which)
			}
			return nil, errf(comp.line, comp.col, "PROCESSOR %d configured twice", id)
		}
		seen[id] = which
		out = append(out, Processor{ID: id, Compiled: compiled})
	}
	return out, nil
}

// maxProcessors bounds a replicated PLACED PAR's count.
const maxProcessors = 4096

// foldReplicator folds a replicated PLACED PAR's base and count
// against the shared declarations.  PROCs cannot name a constant, so
// they are left undeclared here and checked only with each processor.
func foldReplicator(rep *replicator, shared []decl, opt Options) (base, count int64, err error) {
	c := newChecker(opt.WordBytes)
	sc := (&scope{wordBytes: opt.WordBytes}).child(c.newFrame(), false)
	for _, d := range shared {
		if _, isProc := d.(*procDecl); isProc {
			continue
		}
		if derr := c.declare(d, sc, shared); derr != nil {
			return 0, 0, derr
		}
	}
	base, berr := c.constExpr(rep.base, sc)
	if berr != nil {
		return 0, 0, errf(rep.line, rep.col, "PLACED PAR needs a compile-time base: %s", berr.Msg)
	}
	count, cerr := c.constExpr(rep.count, sc)
	if cerr != nil {
		return 0, 0, errf(rep.line, rep.col, "PLACED PAR needs a compile-time count: %s", cerr.Msg)
	}
	if count <= 0 || count > maxProcessors {
		return 0, 0, errf(rep.line, rep.col, "PLACED PAR count must be 1 to %d, got %d", maxProcessors, count)
	}
	return base, count, nil
}

// Generated code runs to about three builder items (instructions and
// source marks) for every five tokens of source and a label for every
// twelve to sixteen, and a program declares a variable, channel or
// replicator for every twenty-five to sixty tokens.  compileProgram
// sizes the builder and the checker's list of locals a little above
// these ratios: a buffer that has to grow once costs more than a few
// spare places.
const (
	itemsPer8Tokens = 5
	tokensPerLabel  = 12
	tokensPerLocal  = 24
)

// compileProgram checks and generates a parsed program; tokens is the
// length of its source in tokens, configuration-IF branches included.
func compileProgram(prog process, tokens int, opt Options) (*Compiled, error) {
	c := newChecker(opt.WordBytes)
	c.tokens = tokens
	root, cerr := c.run(prog)
	if cerr != nil {
		return nil, cerr
	}
	if uerr := c.checkUsage(prog); uerr != nil {
		return nil, uerr
	}
	c.sizeProgram(prog, root)

	g := &gen{
		c:         c,
		b:         asm.NewBuilder(opt.WordBytes),
		wordBytes: opt.WordBytes,
		cur:       root,
		// Room for the frame most code runs in below the root: a PROC's
		// or a PAR component's.
		entered: append(make([]frameEntry, 0, 2), frameEntry{f: root, kind: entryRoot}),
	}
	// Size the builder from what is compiled: not the branches of a
	// configuration IF that the checker passed over.
	g.b.Grow(c.tokens*itemsPer8Tokens/8, c.tokens/tokensPerLabel)
	var genErr *Err
	func() {
		defer func() {
			// The recover that bounds gen.fail: its *Err is the
			// diagnostic.
			if r := recover(); r != nil {
				if e, ok := r.(*Err); ok {
					genErr = e
					return
				}
				// Not a diagnostic but a compiler bug: no recover in this
				// package bounds it, and it reaches the caller as it is.
				panic(r)
			}
		}()
		g.process(prog)
		// Program termination: the initial process stops, leaving the
		// machine idle.
		g.b.Op(isa.OpStopp)
		for len(g.queue) > 0 {
			info := g.queue[0]
			g.queue = g.queue[1:]
			g.emitProc(info)
		}
		// String tables, word aligned after the code.
		for i, sym := range g.tables {
			g.b.Align()
			g.b.Define(g.tableLabels[i])
			g.b.Bytes(sym.tableData)
		}
	}()
	if genErr != nil {
		return nil, genErr
	}

	res, err := g.b.Assemble()
	if err != nil {
		return nil, err
	}
	return &Compiled{
		Image: core.Image{
			Code:    res.Code,
			Entry:   0,
			WsBelow: root.below,
			WsAbove: root.above,
			Marks:   res.Marks,
		},
		Above: root.above,
		Below: root.below,
	}, nil
}
