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
	return compileProgram(prog, tokens, opt, asm.NewBuilder(opt.WordBytes))
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
// i = [base FOR count] compiles its one PROCESSOR for each value of i
// with i a constant; a configuration IF at the head of that
// PROCESSOR's body compiles only the branch the processor takes.
// Processors that take the same branch, and in which what derives from
// i is only ever an operand, differ only in their code: the first is
// checked and sized, and the others reuse its checked tree, frames and
// layout, each generated with its own i.  A processor in which a value
// derived from i decides a shape is checked alone.  Errors are those
// of compiling each processor alone, in order.  A program without
// PLACED PAR compiles to a single processor numbered 0.
func CompileConfigured(src string, opt Options) ([]Processor, error) {
	procs, _, err := compileConfigured(src, opt)
	return procs, err
}

// compileConfigured is CompileConfigured, and also says how many
// processors, or programs, it checked.
func compileConfigured(src string, opt Options) ([]Processor, int, error) {
	if err := checkOptions(&opt); err != nil {
		return nil, 0, err
	}
	prog, tokens, perr := parse(src)
	if perr != nil {
		return nil, 0, perr
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
	b := asm.NewBuilder(opt.WordBytes)
	pp, ok := body.(*placedPar)
	if !ok {
		comp, err := compileProgram(prog, tokens, opt, b)
		if err != nil {
			return nil, 1, err
		}
		return []Processor{{ID: 0, Compiled: comp}}, 1, nil
	}
	rep, base, n := pp.rep, int64(0), int64(len(pp.components))
	var t *configTree
	if rep != nil {
		var err error
		if base, n, err = foldReplicator(rep, shared, opt); err != nil {
			return nil, 0, err
		}
		t = newConfigTree(shared, pp)
	}

	out := make([]Processor, n)
	seen := make(map[int64]int64, n) // each processor number's component, or value of i
	checks := 0
	for k := int64(0); k < n; k++ {
		comp, which := &pp.components[0], base+k
		if rep == nil {
			comp = &pp.components[k]
		}
		if out[k].Compiled == nil {
			checks++
			var err error
			if rep != nil {
				err = t.compile(out, k, base, opt, b)
			} else {
				// The processor number is folded by smuggling it through
				// a DEF in the component's compilation.
				idDecl := &defDecl{pos: comp.pos, name: processorNumber, value: comp.processor}
				synth := &declProc{pos: comp.pos, decls: shared, body: &declProc{pos: comp.pos, decls: []decl{idDecl}, body: comp.body}}
				out[k].Compiled, err = compileProgram(synth, pp.tokens+comp.tokens, opt, b)
				if err == nil {
					out[k].ID = idDecl.sym.value
				}
			}
			if err != nil {
				return nil, checks, err
			}
		}
		id := out[k].ID
		if prev, dup := seen[id]; dup {
			if rep != nil {
				return nil, checks, errf(comp.line, comp.col, "PROCESSOR %d configured twice: for %s = %d and %s = %d",
					id, rep.name, prev, rep.name, which)
			}
			return nil, checks, errf(comp.line, comp.col, "PROCESSOR %d configured twice", id)
		}
		seen[id] = which
	}
	return out, checks, nil
}

// configTree is a replicated PLACED PAR's one component wrapped for
// compilation: the shared declarations, then i's DEF and the processor
// number's, then the component's body.  i's DEF takes each value in
// turn through iVal.
type configTree struct {
	prog   process
	tokens int
	iVal   *numberExpr
	idDecl *defDecl
}

func newConfigTree(shared []decl, pp *placedPar) *configTree {
	comp, rep := &pp.components[0], pp.rep
	t := &configTree{tokens: pp.tokens + comp.tokens, iVal: &numberExpr{pos: rep.pos}}
	t.idDecl = &defDecl{pos: comp.pos, name: processorNumber, value: comp.processor}
	own := []decl{&defDecl{pos: rep.pos, name: rep.name, value: t.iVal}, t.idDecl}
	t.prog = &declProc{pos: comp.pos, decls: shared, body: &declProc{pos: comp.pos, decls: own, body: comp.body}}
	return t
}

// compile checks and generates the processor for i = base+k into
// out[k].  Unless a value derived from i decides a shape in it, it then
// generates every later processor still to compile that the check
// admits: they share its checked tree, frames and layout.  It does so
// at once, since the next check binds the tree's names anew.  A
// processor whose generation fails is left for compiling alone, in its
// turn.
func (t *configTree) compile(out []Processor, k, base int64, opt Options, b *asm.Builder) error {
	t.iVal.val = base + k
	c, root, err := checkProgram(t.prog, t.tokens, opt, &configCheck{i: t.iVal})
	if err != nil {
		return err
	}
	comp, gerr := c.generate(t.prog, root, b)
	if gerr != nil {
		return gerr
	}
	out[k] = Processor{ID: t.idDecl.sym.value, Compiled: comp}
	if c.config.shaped {
		return nil
	}
	for j := k + 1; j < int64(len(out)); j++ {
		if out[j].Compiled != nil || !t.admits(c, base+j) {
			continue
		}
		for _, info := range c.config.procs {
			info.queued = false
		}
		if comp, err := c.generate(t.prog, root, b); err == nil {
			out[j] = Processor{ID: t.idDecl.sym.value, Compiled: comp}
		}
	}
	return nil
}

// admits reports whether the processor for i = which takes the
// configuration branch c checked, with every value derived from i
// folding as it did there, and leaves those values set for it.
func (t *configTree) admits(c *checker, which int64) bool {
	t.iVal.val = which
	for _, d := range c.config.derived {
		v, ok := foldConst(d.value)
		if !ok {
			return false
		}
		d.sym.value = v
	}
	if v := c.config.choice; v != nil {
		// The branch's own guard first: a processor that takes another
		// branch usually fails there.
		if k, ok := foldConst(v.branches[v.chosen].cond); !ok || k == 0 {
			return false
		}
		for _, br := range v.branches[:v.chosen] {
			if k, ok := foldConst(br.cond); !ok || k != 0 {
				return false
			}
		}
	}
	return true
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

// compileProgram checks and generates a parsed program through b;
// tokens is the length of its source in tokens, configuration-IF
// branches included.
func compileProgram(prog process, tokens int, opt Options, b *asm.Builder) (*Compiled, error) {
	c, root, err := checkProgram(prog, tokens, opt, nil)
	if err != nil {
		return nil, err
	}
	return c.generate(prog, root, b)
}

// checkProgram checks, usage-checks and sizes a parsed program, and
// returns its checker and root frame.  config is set for a processor
// of a replicated PLACED PAR, and nil otherwise.
func checkProgram(prog process, tokens int, opt Options, config *configCheck) (*checker, *frame, *Err) {
	c := newChecker(opt.WordBytes)
	c.tokens = int32(tokens)
	c.config = config
	root, cerr := c.run(prog)
	if cerr != nil {
		return nil, nil, cerr
	}
	if uerr := c.checkUsage(prog); uerr != nil {
		return nil, nil, uerr
	}
	c.sizeProgram(prog, root)
	return c, root, nil
}

// generate generates a checked program's code through b, emptied
// first, and assembles it.
func (c *checker) generate(prog process, root *frame, b *asm.Builder) (*Compiled, error) {
	b.Reset()
	g := &gen{
		c:         c,
		b:         b,
		wordBytes: int(c.wordBytes),
		cur:       root,
		// Room for the frame most code runs in below the root: a PROC's
		// or a PAR component's.
		entered: append(make([]frameEntry, 0, 2), frameEntry{f: root, kind: entryRoot}),
	}
	// Size the builder from what is compiled: not the branches of a
	// configuration IF that the checker passed over.
	g.b.Grow(int(c.tokens)*itemsPer8Tokens/8, int(c.tokens)/tokensPerLabel)
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
