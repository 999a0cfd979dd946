package occam

import (
	"strconv"
	"strings"

	"transputer/internal/asm"
)

// Semantic analysis: scopes, symbol binding, constant evaluation, and
// structural checks.  The checker also creates the workspace frames:
// one for the program, one per PROC body, and one per PAR component.

type symbolKind uint8

const (
	symConst symbolKind = iota
	symVar
	symChan
	symProc
	symParam
	symRep   // replicator index variable
	symTable // DEF name = "string": a read-only byte table in code space
)

// symbol is a named entity bound by the checker.  The one-byte fields
// lead, so that a symbol packs into 128 bytes.
type symbol struct {
	kind symbolKind
	// array is set for arrays, channel arrays, string tables and array
	// parameters.
	array bool
	// placed marks a channel PLACEd at placeAddr.
	placed bool
	// paramKind, paramIndex and nParams: a parameter's kind, its place
	// among its PROC's parameters and their number.
	paramKind paramKind
	// uses is how often the code names the symbol, each use weighted by
	// the loops around it (checker.weight); layout puts the most used
	// nearest the frame base.
	uses uint32

	name  string
	pos   pos
	frame *frame

	// Variables, channels, replicators: workspace slot (word offset
	// from the frame base).
	offset int
	size   int // array length in words

	placeAddr int64

	// Constants.
	value int64

	// String tables: the length-prefixed bytes, emitted into the code
	// image.
	tableData []byte

	// Procedures.
	proc *procInfo

	paramIndex int
	nParams    int
}

// procInfo carries everything the code generator needs about a PROC.
type procInfo struct {
	decl   *procDecl
	frame  *frame
	params []*symbol
	label  asm.Label // set when the generator queues the body
	// emitted is set once the body has been queued for generation.
	queued bool
	// effects is the body's use of each parameter, once summarised
	// (usage.go).
	effects    []paramEffects
	summarised bool
}

// frame is one workspace: slots 0 and 1 are reserved (scratch /
// alternative selection / end-process block), locals, replicator
// blocks and expression spill temporaries follow in the order layout
// gives them, then (for PROCs) the slots of parameters beyond the
// third.
type frame struct {
	id      int
	nLocal  int // slots 0 and 1 and the locals' words
	maxTemp int // expression spill temporaries needed
	// tempBase is the offset of the first temporary (size.go).
	tempBase int
	// Sizing results (size.go); above is 0 until the frame is sized.
	above int // words at and above the frame base
	below int // words below the frame base
	// PROC frames: extra parameter slots reserved at the top of the
	// local area.
	extraParams int
	// tempUses is the temporaries' use, weighted as a symbol's is, and
	// outUses its code's weighted uses of enclosing frames' words.
	tempUses, outUses uint32
}

const frameReserved = 2 // slots 0 and 1

// words is how many workspace words a local occupies: a replicator's
// block is two, its value or index and then the remaining count of a
// SEQ or ALT, or a PAR copy's static link.
func (s *symbol) words() int {
	switch {
	case s.array:
		return s.size
	case s.kind == symRep:
		return 2
	}
	return 1
}

// scope is a lexical scope; procBoundary scopes hide outer variables
// (occam PROCs here may reference only their parameters and global
// constants — a documented subset restriction).
//
// Most scopes declare a name or two, and none more than one declaration
// group of the program, so a scope keeps its names in a slice.
type scope struct {
	parent       *scope
	names        []*symbol
	frame        *frame
	procBoundary bool
	// wordBytes is set on the outermost scope only, which holds the
	// predefined constants: lookup declares one there the first time a
	// program names it (see builtinConst).
	wordBytes int
}

func (s *scope) child(f *frame, boundary bool) *scope {
	if f == nil {
		f = s.frame
	}
	return &scope{parent: s, frame: f, procBoundary: boundary}
}

// find returns the symbol the scope itself binds to a name.
func (s *scope) find(name string) *symbol {
	for _, sym := range s.names {
		if sym.name == name {
			return sym
		}
	}
	return nil
}

func (s *scope) declare(sym *symbol) *Err {
	if s.find(sym.name) != nil {
		return errf(sym.pos.line, sym.pos.col, "%q already declared in this scope", sym.name)
	}
	s.names = append(s.names, sym)
	return nil
}

// lookup resolves a name, honouring PROC boundaries: variables and
// channels outside a PROC are invisible inside it.
func (s *scope) lookup(name string) (*symbol, bool) {
	crossed := false
	for sc := s; sc != nil; sc = sc.parent {
		if sym := sc.find(name); sym != nil {
			if crossed && sym.kind != symConst && sym.kind != symProc {
				return nil, false
			}
			return sym, true
		}
		if sc.wordBytes != 0 {
			if v, ok := builtinConst(name, sc.wordBytes); ok {
				sym := &symbol{kind: symConst, name: name, value: v}
				sc.names = append(sc.names, sym)
				return sym, true
			}
		}
		if sc.procBoundary {
			crossed = true
		}
	}
	return nil, false
}

// checker drives resolution.
type checker struct {
	wordBytes int
	// tokens is the program's length in tokens, less those of the
	// configuration-IF branches not taken.
	tokens int
	// locals is every symbol layout places, in declaration order.
	locals    []*symbol
	nextFrame int32
	// weight is what one use counts for at this point of the program:
	// loopWeight per enclosing loop, and nothing in code that a
	// constant guard leaves out.
	weight uint32
}

// loopWeight is how many times more a use inside a loop counts than one
// just outside it.
const loopWeight = 8

// maxWeight bounds weight, so that the uses of a symbol in loops nested
// deeper than seven rank alike instead of overflowing.
const maxWeight = 1 << 21

// inLoop is the weight of a use in a loop entered at weight w.
func inLoop(w uint32) uint32 { return min(w*loopWeight, maxWeight) }

// addUses adds w to a use count, saturating.
func addUses(uses, w uint32) uint32 {
	if uses > ^uint32(0)-w {
		return ^uint32(0)
	}
	return uses + w
}

// use counts one use of a symbol, by code in scope sc, at the current
// weight: on the symbol, and, when the symbol is a word of an
// enclosing frame, on the frame the code runs in, which reaches out to
// it.
func (c *checker) use(sym *symbol, sc *scope) {
	sym.uses = addUses(sym.uses, c.weight)
	if sym.frame != nil && sym.frame != sc.frame && !sym.placed {
		sc.frame.outUses = addUses(sc.frame.outUses, c.weight)
	}
}

// local gives a symbol words in its frame, which layout places.
func (c *checker) local(sym *symbol) {
	sym.frame.nLocal += sym.words()
	if c.locals == nil {
		// Sized at the first local, which in a configured processor
		// usually comes after its configuration IF has taken off the
		// branches it leaves out.
		c.locals = make([]*symbol, 0, c.tokens/tokensPerLocal+1)
	}
	c.locals = append(c.locals, sym)
}

// parInfo is the checker/sizer annotation for a PAR construct.
type parInfo struct {
	frames []*frame // one per component (one total when replicated)
	// deltas: word offset of each component frame base from the
	// enclosing frame base (negative).  Replicated PAR uses deltas[0]
	// for copy 0 and stride for the rest.
	deltas []int
	stride int
	count  int // replicated copy count
}

func newChecker(wordBytes int) *checker {
	return &checker{wordBytes: wordBytes, weight: 1}
}

func (c *checker) newFrame() *frame {
	c.nextFrame++
	return &frame{id: int(c.nextFrame), nLocal: frameReserved}
}

// builtinConst resolves a predefined constant by name for a word
// length (TRUE/FALSE are keywords, not constants): the integer bounds
// MOSTNEG and MOSTPOS, the link channel words LINK<l>OUT/IN and EVENT
// at the bottom of the address space, and the virtual-channel words
// LINK<l>VC<v>OUT/IN — PLACE a channel there to speak on virtual
// channel v of a multiplexed link l.  That block sits at the most
// positive addresses (mirroring core's VChanOutAddr/VChanInAddr), far
// above any realistic memory size; like the link words, the addresses
// are pure names and are never dereferenced.
//
// There are 267 such names and a program uses a handful, so they are
// worked out from the spelling when a lookup reaches the outermost
// scope (see scope.lookup) instead of being declared into a table per
// compile — which was a third of compile time — or kept in a shared
// one, which would sit in every importing program's heap for good.
func builtinConst(name string, wordBytes int) (int64, bool) {
	const maxVC = 32 // core.VChanMax
	bpw := int64(wordBytes)
	mostpos := int64(1)<<(uint(wordBytes)*8-1) - 1
	mostneg := -mostpos - 1
	switch name {
	case "EVENT":
		return mostneg + 8*bpw, true
	case "MOSTNEG":
		return mostneg, true
	case "MOSTPOS":
		return mostpos, true
	}
	rest, ok := strings.CutPrefix(name, "LINK")
	if !ok || rest == "" || rest[0] < '0' || rest[0] > '3' {
		return 0, false
	}
	// word is the link's place in an eight-word row: outputs 0..3, then
	// inputs 4..7.
	word := int64(rest[0] - '0')
	rest = rest[1:]
	if vc, ok := strings.CutSuffix(rest, "OUT"); ok {
		rest = vc
	} else if vc, ok := strings.CutSuffix(rest, "IN"); ok {
		rest, word = vc, word+4
	} else {
		return 0, false
	}
	if rest == "" {
		return mostneg + word*bpw, true
	}
	digits, ok := strings.CutPrefix(rest, "VC")
	v, err := strconv.Atoi(digits)
	if !ok || err != nil || v < 0 || v >= maxVC || strconv.Itoa(v) != digits {
		return 0, false // only the canonical spelling is a name: LINK0VC7OUT, not LINK0VC07OUT
	}
	vcbase := mostpos + 1 - 4*maxVC*2*bpw
	return vcbase + (word*maxVC+int64(v))*bpw, true
}

// run resolves the whole program, returning the root frame.
func (c *checker) run(prog process) (*frame, *Err) {
	root := c.newFrame()
	sc := (&scope{wordBytes: c.wordBytes}).child(root, false)
	if err := c.process(prog, sc); err != nil {
		return nil, err
	}
	return root, nil
}

func (c *checker) process(p process, sc *scope) *Err {
	switch v := p.(type) {
	case *skipProc, *stopProc:
		return nil
	case *declProc:
		inner := sc.child(nil, false)
		for _, d := range v.decls {
			if err := c.declare(d, inner, v.decls); err != nil {
				return err
			}
		}
		return c.process(v.body, inner)
	case *assignProc:
		if err := c.bindTarget(v.target, v.index, sc); err != nil {
			return err
		}
		return c.expr(v.value, sc)
	case *outputProc:
		if err := c.bindChannel(v.ch, v.chIdx, sc); err != nil {
			return err
		}
		for _, e := range v.values {
			if err := c.expr(e, sc); err != nil {
				return err
			}
		}
		return nil
	case *inputProc:
		if err := c.bindChannel(v.ch, v.chIdx, sc); err != nil {
			return err
		}
		for _, tgt := range v.targets {
			if tgt.name == nil {
				continue // ANY
			}
			if err := c.bindTarget(tgt.name, tgt.index, sc); err != nil {
				return err
			}
		}
		return nil
	case *timeInputProc:
		if v.after != nil {
			return c.expr(v.after, sc)
		}
		return c.bindTarget(v.target, v.index, sc)
	case *seqProc:
		inner, w := sc, c.weight
		if v.rep != nil {
			var err *Err
			inner, err = c.replicator(v.rep, sc)
			if err != nil {
				return err
			}
			// The body, and the loop end that steps the replicator
			// block, run once an iteration.
			c.weight = inLoop(w)
			c.use(v.rep.sym, sc)
		}
		for _, sub := range v.procs {
			if err := c.process(sub, inner); err != nil {
				return err
			}
		}
		c.weight = w
		return nil
	case *parProc:
		return c.par(v, sc)
	case *altProc:
		return c.alt(v, sc)
	case *ifProc:
		if v.config {
			return c.configChoice(v, sc)
		}
		// A branch whose guard folds FALSE, and every branch after one
		// that folds TRUE, compile to nothing, so their uses count for
		// nothing.
		w := c.weight
		for _, br := range v.branches {
			if err := c.expr(br.cond, sc); err != nil {
				return err
			}
			k, konst := foldConst(br.cond)
			bw := c.weight
			if konst && k == 0 {
				c.weight = 0
			}
			if err := c.process(br.body, sc.child(nil, false)); err != nil {
				return err
			}
			c.weight = bw
			if konst && k != 0 {
				c.weight = 0
			}
		}
		c.weight = w
		return nil
	case *whileProc:
		w := c.weight
		c.weight = inLoop(w)
		if err := c.expr(v.cond, sc); err != nil {
			return err
		}
		if k, konst := foldConst(v.cond); konst && k == 0 {
			c.weight = 0
		}
		err := c.process(v.body, sc.child(nil, false))
		c.weight = w
		return err
	case *placedPar:
		return errf(v.line, v.col, "PLACED PAR must be the outermost process (compile with CompileConfigured)")
	case *callProc:
		sym, ok := sc.lookup(v.name)
		if !ok || sym.kind != symProc {
			return errf(v.line, v.col, "%q is not a PROC", v.name)
		}
		v.sym = sym
		if len(v.args) != len(sym.proc.params) {
			return errf(v.line, v.col, "%q takes %d arguments, given %d",
				v.name, len(sym.proc.params), len(v.args))
		}
		for i, a := range v.args {
			if err := c.argument(a, sym.proc.params[i], sc); err != nil {
				return err
			}
		}
		return nil
	}
	return errf(0, 0, "checker: unhandled process %T", p)
}

// processorNumber is the DEF through which CompileConfigured passes a
// component its processor number.
const processorNumber = "configured.processor.number"

// configChoice checks a configuration IF: the first branch whose guard
// folds true is the processor's, and the branches it does not take are
// neither checked nor counted among the tokens compiled.
func (c *checker) configChoice(v *ifProc, sc *scope) *Err {
	v.chosen = -1
	for i := range v.branches {
		br := &v.branches[i]
		if v.chosen >= 0 {
			c.tokens -= br.tokens
			continue
		}
		val, err := c.constExpr(br.cond, sc)
		if err != nil {
			return errf(err.Line, err.Col, "a configuration IF guard must fold once the PLACED PAR replicator is fixed: %s", err.Msg)
		}
		if val != 0 {
			v.chosen = int32(i)
		} else {
			c.tokens -= br.tokens
		}
	}
	if v.chosen < 0 {
		id, _ := sc.lookup(processorNumber)
		return errf(v.line, v.col, "no branch of the configuration IF is true for PROCESSOR %d", id.value)
	}
	return c.process(v.branches[v.chosen].body, sc.child(nil, false))
}

// declare binds one declaration of a group; the group's PLACEs say
// which channels are pinned to link addresses.
func (c *checker) declare(d decl, sc *scope, group []decl) *Err {
	switch v := d.(type) {
	case *varDecl:
		return c.declareItems(v.items, symVar, sc, nil)
	case *chanDecl:
		return c.declareItems(v.items, symChan, sc, group)
	case *defDecl:
		if v.strVal != nil {
			s := *v.strVal
			if len(s) > 255 {
				return errf(v.line, v.col, "string table longer than 255 bytes")
			}
			data := append([]byte{byte(len(s))}, s...)
			words := (len(data) + c.wordBytes - 1) / c.wordBytes
			sym := &symbol{
				kind: symTable, name: v.name, pos: v.pos,
				array: true, size: words, tableData: data,
			}
			v.sym = sym
			return sc.declare(sym)
		}
		val, err := c.constExpr(v.value, sc)
		if err != nil {
			return err
		}
		sym := &symbol{kind: symConst, name: v.name, pos: v.pos, value: val}
		v.sym = sym
		return sc.declare(sym)
	case *placeDecl:
		sym, ok := sc.lookup(v.name)
		if !ok || sym.kind != symChan {
			return errf(v.line, v.col, "PLACE needs a channel declared in scope, %q is not one", v.name)
		}
		if sym.array {
			return errf(v.line, v.col, "cannot PLACE a channel array")
		}
		addr, err := c.constExpr(v.addr, sc)
		if err != nil {
			return err
		}
		sym.placed = true
		sym.placeAddr = addr
		return nil
	case *procDecl:
		return c.declareProc(v, sc)
	}
	return errf(0, 0, "checker: unhandled declaration %T", d)
}

// placedIn reports whether a declaration group PLACEs the named
// channel.
func placedIn(group []decl, name string) bool {
	for _, d := range group {
		if pd, ok := d.(*placeDecl); ok && pd.name == name {
			return true
		}
	}
	return false
}

// declareItems binds the names of a VAR or CHAN declaration.  Channels
// that a PLACE in the same group pins to a link address need no
// workspace slot.
func (c *checker) declareItems(items []declItem, kind symbolKind, sc *scope, group []decl) *Err {
	for i := range items {
		item := &items[i]
		sym := &symbol{kind: kind, name: item.name, pos: item.pos, frame: sc.frame}
		switch {
		case kind == symChan && placedIn(group, item.name):
			// A link-placed channel occupies no workspace; PLACE fills
			// in the address.
			if item.size != nil {
				return errf(item.line, item.col, "cannot PLACE a channel array")
			}
		case item.size != nil:
			n, err := c.constExpr(item.size, sc)
			if err != nil {
				return err
			}
			if n <= 0 {
				return errf(item.line, item.col, "array size must be positive, got %d", n)
			}
			sym.array = true
			sym.size = int(n)
			c.local(sym)
		default:
			c.local(sym)
		}
		item.sym = sym
		if err := sc.declare(sym); err != nil {
			return err
		}
	}
	return nil
}

// findNestedPar returns the first PAR construct anywhere in the
// process tree, or nil.  declareProc uses it to refuse PAR inside a
// PROC body: a called PROC runs on its caller's thread with a
// statically-linked frame, and the generator's component frame layout
// assumes the spawning PAR is lexically enclosing (see gen.go), so a
// PAR reached through a call would corrupt the caller's workspace.
func findNestedPar(p process) *parProc {
	switch v := p.(type) {
	case *parProc:
		return v
	case *seqProc:
		for _, sub := range v.procs {
			if par := findNestedPar(sub); par != nil {
				return par
			}
		}
	case *declProc:
		return findNestedPar(v.body)
	case *whileProc:
		return findNestedPar(v.body)
	case *ifProc:
		for _, br := range v.branches {
			if par := findNestedPar(br.body); par != nil {
				return par
			}
		}
	case *altProc:
		for _, br := range v.branches {
			if par := findNestedPar(br.body); par != nil {
				return par
			}
		}
	}
	return nil
}

func (c *checker) declareProc(d *procDecl, sc *scope) *Err {
	if par := findNestedPar(d.body); par != nil {
		return errf(par.line, par.col,
			"PAR inside PROC %q is not supported: a PROC body runs on its caller's thread; spawn the PAR at the call site instead", d.name)
	}
	f := c.newFrame()
	info := &procInfo{decl: d, frame: f}
	sym := &symbol{kind: symProc, name: d.name, pos: d.pos, proc: info}
	d.sym = sym

	// The body scope sees parameters but not enclosing variables.
	body := sc.child(f, true)
	info.params = make([]*symbol, 0, len(d.params))
	for i := range d.params {
		pm := &d.params[i]
		psym := &symbol{
			kind: symParam, name: pm.name, pos: pm.pos, frame: f,
			paramKind: pm.kind, paramIndex: i, array: pm.array,
		}
		pm.sym = psym
		info.params = append(info.params, psym)
		if err := body.declare(psym); err != nil {
			return err
		}
	}
	if err := c.process(d.body, body); err != nil {
		return err
	}
	for _, psym := range info.params {
		psym.nParams = len(info.params)
	}
	// Parameters beyond the third occupy slots at the very top of the
	// frame (see the calling convention in gen.go).
	if extras := len(d.params) - 3; extras > 0 {
		f.extraParams = extras
	}
	// The PROC name becomes visible only after its body: occam has no
	// recursion, and this enforces it.
	return sc.declare(sym)
}

func (c *checker) replicator(rep *replicator, sc *scope) (*scope, *Err) {
	if err := c.expr(rep.base, sc); err != nil {
		return nil, err
	}
	if err := c.expr(rep.count, sc); err != nil {
		return nil, err
	}
	inner := sc.child(nil, false)
	sym := &symbol{kind: symRep, name: rep.name, pos: rep.pos, frame: sc.frame}
	// Two adjacent slots: index (the variable) and remaining count.
	c.local(sym)
	rep.sym = sym
	if err := inner.declare(sym); err != nil {
		return nil, err
	}
	return inner, nil
}

func (c *checker) par(v *parProc, sc *scope) *Err {
	info := &parInfo{}
	v.info = info
	if v.rep != nil {
		// Replicated PAR needs a compile-time count: the compiler
		// performs all workspace allocation (paper, 3.2.4).
		n, err := c.constExpr(v.rep.count, sc)
		if err != nil {
			return errf(v.rep.line, v.rep.col, "replicated PAR needs a compile-time count: %s", err.Msg)
		}
		if n <= 0 {
			return errf(v.rep.line, v.rep.col, "replicated PAR count must be positive, got %d", n)
		}
		if err2 := c.expr(v.rep.base, sc); err2 != nil {
			return err2
		}
		info.count = int(n)
		f := c.newFrame()
		info.frames = []*frame{f}
		comp := sc.child(f, false)
		// The copy's replicator value, then its static link: replicated
		// components share code, so each copy's frame holds the
		// enclosing frame's base address.  Every access outward goes
		// through the link, so the block counts as used the most.
		sym := &symbol{kind: symRep, name: v.rep.name, pos: v.rep.pos, frame: f, uses: ^uint32(0)}
		c.local(sym)
		v.rep.sym = sym
		if err2 := comp.declare(sym); err2 != nil {
			return err2
		}
		return c.process(v.procs[0], comp)
	}
	info.frames = make([]*frame, 0, len(v.procs))
	for _, sub := range v.procs {
		f := c.newFrame()
		info.frames = append(info.frames, f)
		if err := c.process(sub, sc.child(f, false)); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) alt(v *altProc, sc *scope) *Err {
	if v.rep != nil {
		// Replicated ALT: one channel guard indexed by the replicator.
		inner, err := c.replicator(v.rep, sc)
		if err != nil {
			return err
		}
		// The guard is enabled and disabled in two loops over the
		// replicator block; the body runs once.
		w := c.weight
		c.weight = inLoop(w)
		c.use(v.rep.sym, sc)
		br := &v.branches[0]
		if br.cond != nil {
			if err := c.expr(br.cond, inner); err != nil {
				return err
			}
		}
		in, ok := br.input.(*inputProc)
		if !ok {
			return errf(br.line, br.col, "a replicated ALT guard must be a channel input")
		}
		if err := c.process(in, inner); err != nil {
			return err
		}
		c.weight = w
		return c.process(br.body, inner.child(nil, false))
	}
	for i := range v.branches {
		br := &v.branches[i]
		if br.cond != nil {
			if err := c.expr(br.cond, sc); err != nil {
				return err
			}
		}
		switch in := br.input.(type) {
		case *inputProc:
			if err := c.process(in, sc); err != nil {
				return err
			}
		case *timeInputProc:
			if in.after == nil {
				return errf(br.line, br.col, "a timer guard must use TIME ? AFTER")
			}
			if err := c.expr(in.after, sc); err != nil {
				return err
			}
			v.timed = true
		case *skipProc:
			if br.cond == nil {
				return errf(br.line, br.col, "a SKIP guard needs a boolean (use TRUE & SKIP)")
			}
		default:
			return errf(br.line, br.col, "invalid alternative guard")
		}
		if err := c.process(br.body, sc.child(nil, false)); err != nil {
			return err
		}
	}
	return nil
}

// bindTarget resolves an assignment or input target.
func (c *checker) bindTarget(name *nameExpr, index expr, sc *scope) *Err {
	sym, ok := sc.lookup(name.name)
	if !ok {
		return errf(name.line, name.col, "undeclared name %q", name.name)
	}
	name.sym = sym
	c.use(sym, sc)
	switch sym.kind {
	case symVar, symRep:
	case symParam:
		if sym.paramKind == paramChan {
			return errf(name.line, name.col, "%q is a channel parameter, not a variable", name.name)
		}
		if sym.paramKind == paramValue && !sym.array && index == nil {
			return errf(name.line, name.col, "cannot assign to VALUE parameter %q", name.name)
		}
	default:
		return errf(name.line, name.col, "%q is not a variable", name.name)
	}
	if index != nil {
		if !sym.array {
			return errf(name.line, name.col, "%q is not an array", name.name)
		}
		return c.expr(index, sc)
	}
	return nil
}

// bindChannel resolves a channel reference.
func (c *checker) bindChannel(name *nameExpr, index expr, sc *scope) *Err {
	sym, ok := sc.lookup(name.name)
	if !ok {
		return errf(name.line, name.col, "undeclared channel %q", name.name)
	}
	name.sym = sym
	c.use(sym, sc)
	switch {
	case sym.kind == symChan:
	case sym.kind == symParam && sym.paramKind == paramChan:
	default:
		return errf(name.line, name.col, "%q is not a channel", name.name)
	}
	if index != nil {
		if !sym.array {
			return errf(name.line, name.col, "%q is not a channel array", name.name)
		}
		return c.expr(index, sc)
	}
	return nil
}

// argument checks an actual against its formal.
func (c *checker) argument(a expr, formal *symbol, sc *scope) *Err {
	switch formal.paramKind {
	case paramValue:
		if formal.array {
			return c.arrayArg(a, sc, "an array")
		}
		return c.expr(a, sc)
	case paramVar:
		if formal.array {
			return c.arrayArg(a, sc, "an array")
		}
		// Need an addressable variable.
		switch v := a.(type) {
		case *nameExpr:
			return c.bindTarget(v, nil, sc)
		case *indexExpr:
			return c.bindTarget(v.base, v.index, sc)
		}
		return errf(posOfExpr(a).line, posOfExpr(a).col, "VAR argument must be a variable")
	case paramChan:
		switch v := a.(type) {
		case *nameExpr:
			if formal.array {
				if err := c.bindChannel(v, nil, sc); err != nil {
					return err
				}
				if !v.sym.array {
					return errf(v.line, v.col, "%q is not a channel array", v.name)
				}
				return nil
			}
			return c.bindChannel(v, nil, sc)
		case *indexExpr:
			return c.bindChannel(v.base, v.index, sc)
		}
		return errf(posOfExpr(a).line, posOfExpr(a).col, "CHAN argument must be a channel")
	}
	return nil
}

func (c *checker) arrayArg(a expr, sc *scope, what string) *Err {
	v, ok := a.(*nameExpr)
	if !ok {
		return errf(posOfExpr(a).line, posOfExpr(a).col, "argument must be %s name", what)
	}
	sym, found := sc.lookup(v.name)
	if !found {
		return errf(v.line, v.col, "undeclared name %q", v.name)
	}
	v.sym = sym
	c.use(sym, sc)
	if !sym.array {
		return errf(v.line, v.col, "%q is not an array", v.name)
	}
	return nil
}

// expr resolves names within an expression.
func (c *checker) expr(e expr, sc *scope) *Err {
	switch v := e.(type) {
	case *numberExpr:
		return nil
	case *nameExpr:
		sym, ok := sc.lookup(v.name)
		if !ok {
			return errf(v.line, v.col, "undeclared name %q", v.name)
		}
		v.sym = sym
		c.use(sym, sc)
		switch sym.kind {
		case symVar, symRep, symConst, symTable:
		case symParam:
			if sym.paramKind == paramChan {
				return errf(v.line, v.col, "channel %q cannot appear in an expression", v.name)
			}
		case symChan:
			return errf(v.line, v.col, "channel %q cannot appear in an expression", v.name)
		default:
			return errf(v.line, v.col, "%q cannot appear in an expression", v.name)
		}
		return nil
	case *indexExpr:
		if err := c.expr(v.base, sc); err != nil {
			return err
		}
		if !v.base.sym.array {
			return errf(v.line, v.col, "%q is not an array", v.base.name)
		}
		return c.expr(v.index, sc)
	case *unaryExpr:
		return c.expr(v.arg, sc)
	case *binaryExpr:
		if err := c.expr(v.left, sc); err != nil {
			return err
		}
		return c.expr(v.right, sc)
	}
	return errf(0, 0, "checker: unhandled expression %T", e)
}

// constExpr resolves and folds a compile-time constant.
func (c *checker) constExpr(e expr, sc *scope) (int64, *Err) {
	if err := c.expr(e, sc); err != nil {
		return 0, err
	}
	v, ok := foldConst(e)
	if !ok {
		p := posOfExpr(e)
		return 0, errf(p.line, p.col, "expression is not a compile-time constant")
	}
	return v, nil
}

// foldConst evaluates constant expressions (DEF values, literals, and
// operators over them).
func foldConst(e expr) (int64, bool) {
	switch v := e.(type) {
	case *numberExpr:
		return v.val, true
	case *nameExpr:
		if v.sym != nil && v.sym.kind == symConst {
			return v.sym.value, true
		}
	case *unaryExpr:
		a, ok := foldConst(v.arg)
		if !ok {
			return 0, false
		}
		switch v.op {
		case "-":
			return -a, true
		case "NOT":
			return boolInt(a == 0), true
		}
	case *binaryExpr:
		l, ok1 := foldConst(v.left)
		r, ok2 := foldConst(v.right)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch v.op {
		case "+":
			return l + r, true
		case "-":
			return l - r, true
		case "*":
			return l * r, true
		case "/":
			if r == 0 {
				return 0, false
			}
			return l / r, true
		case "\\":
			if r == 0 {
				return 0, false
			}
			return l % r, true
		case "/\\":
			return l & r, true
		case "\\/":
			return l | r, true
		case "><":
			return l ^ r, true
		case "<<":
			return l << uint(r&63), true
		case ">>":
			return int64(uint64(l) >> uint(r&63)), true
		case "=":
			return boolInt(l == r), true
		case "<>":
			return boolInt(l != r), true
		case "<":
			return boolInt(l < r), true
		case ">":
			return boolInt(l > r), true
		case "<=":
			return boolInt(l <= r), true
		case ">=":
			return boolInt(l >= r), true
		case "AND":
			return boolInt(l != 0 && r != 0), true
		case "OR":
			return boolInt(l != 0 || r != 0), true
		}
	}
	return 0, false
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func posOfExpr(e expr) pos {
	switch v := e.(type) {
	case *numberExpr:
		return v.pos
	case *nameExpr:
		return v.pos
	case *indexExpr:
		return v.pos
	case *unaryExpr:
		return v.pos
	case *binaryExpr:
		return v.pos
	}
	return pos{}
}
