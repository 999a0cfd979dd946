package occam

import (
	"transputer/internal/asm"
	"transputer/internal/isa"
)

// Code generation.  Each frame's code runs with the workspace pointer
// equal to the frame base; frames are entered only via PAR component
// startup (ajw / start process) and PROC calls.
//
// Calling convention: up to three arguments travel on the evaluation
// stack and are saved by the call instruction into the new frame
// (paper, 3.2.3: the stack holds "parameters of procedure calls");
// arguments beyond three are stored by the caller below its own
// workspace where, after call and the callee's workspace adjustment,
// they appear at the top of the callee's local area.  The callee runs
// with its workspace adjusted down by its frame size and returns with
// ret after restoring the pointer.

// accessPath says how the current code reaches a frame's base.
type accessPath struct {
	indirect bool
	linkSlot int // static slot in the current frame holding a frame address
	delta    int // word offset from (current Wptr | linked frame base)
}

type gen struct {
	c         *checker
	b         *asm.Builder
	wordBytes int

	cur *frame
	// entered is the chain of frames generation has entered, outermost
	// first; the last is cur.  pathOf walks it to reach a frame.
	entered  []frameEntry
	tempNext int

	queue []*procInfo

	// String tables referenced by the program, emitted after the code,
	// and their labels.
	tables      []*symbol
	tableLabels []asm.Label
}

// tableLabel registers a string table for emission and returns its
// label.
func (g *gen) tableLabel(sym *symbol) asm.Label {
	for i, t := range g.tables {
		if t == sym {
			return g.tableLabels[i]
		}
	}
	l := g.b.NewLabel()
	g.tables = append(g.tables, sym)
	g.tableLabels = append(g.tableLabels, l)
	return l
}

// fail aborts generation with a diagnostic; compileProgram's recover
// turns the panic back into the *Err that Compile returns.
func (g *gen) fail(p pos, format string, args ...interface{}) {
	panic(errf(p.line, p.col, format, args...))
}

// ---- temporaries ----------------------------------------------------

func (g *gen) allocTemp(p pos) int {
	off := g.cur.tempBase + g.tempNext
	g.tempNext++
	if g.tempNext > g.cur.maxTemp {
		g.fail(p, "internal: spill temporaries exceed sizing (%d > %d)", g.tempNext, g.cur.maxTemp)
	}
	return off
}

func (g *gen) freeTemp() { g.tempNext-- }

// ---- frame entry ----------------------------------------------------

// entryKind says how generation entered a frame from the one before it
// in gen.entered.
type entryKind uint8

const (
	entryRoot   entryKind = iota // the program's frame
	entryStatic                  // at a static word delta from the frame before
	entryLinked                  // a replicated-PAR copy: a slot holds the frame before's base
	entryProc                    // a PROC body: the frames before are out of reach
)

type frameEntry struct {
	f    *frame
	kind entryKind
	// arg is the delta (entryStatic) or the link slot (entryLinked).
	arg int
	// tempNext is the temporaries in use in the frame before, which
	// leave restores.
	tempNext int
}

func (g *gen) enter(f *frame, kind entryKind, arg int) {
	g.entered = append(g.entered, frameEntry{f: f, kind: kind, arg: arg, tempNext: g.tempNext})
	g.cur, g.tempNext = f, 0
}

// enterStatic switches generation into a frame at a static delta (in
// words) from the current frame base; leave reverses it.
func (g *gen) enterStatic(f *frame, delta int) { g.enter(f, entryStatic, delta) }

// enterLinked switches into a replicated-PAR component frame whose
// linkSlot holds the enclosing frame's base address.
func (g *gen) enterLinked(f *frame, linkSlot int) { g.enter(f, entryLinked, linkSlot) }

// enterProc switches into a PROC frame (no outer variable access).
func (g *gen) enterProc(f *frame) { g.enter(f, entryProc, 0) }

// leave returns to the frame the last enter left.
func (g *gen) leave() {
	top := g.entered[len(g.entered)-1]
	g.entered = g.entered[:len(g.entered)-1]
	g.cur, g.tempNext = g.entered[len(g.entered)-1].f, top.tempNext
}

// pathOf says how the current code reaches a symbol's frame.  Starting
// at the frame's own entry, each later entry moves the current frame
// base by a static delta or hops through a link slot.  No frame is
// reached through two link slots, nor from inside a PROC body one
// entered outside it.
func (g *gen) pathOf(sym *symbol, p pos) accessPath {
	i := len(g.entered) - 1
	for i >= 0 && g.entered[i].f != sym.frame {
		i--
	}
	reachable := i >= 0
	var path accessPath
	for _, e := range g.entered[i+1:] {
		switch e.kind {
		case entryStatic:
			if path.indirect {
				path.linkSlot -= e.arg
			} else {
				path.delta -= e.arg
			}
		case entryLinked:
			if path.indirect {
				reachable = false
			}
			path = accessPath{indirect: true, linkSlot: e.arg, delta: path.delta}
		case entryProc:
			reachable = false
		}
	}
	if !reachable {
		g.fail(p, "%q is not reachable here (too deeply nested across replicated PAR)", sym.name)
	}
	return path
}

// ---- symbol access --------------------------------------------------

// paramOffset returns the workspace slot of a parameter within its
// PROC frame: the first three arguments ride the evaluation stack and
// are saved by call into the frame words above the adjusted workspace;
// later arguments sit at the top of the local area.
func paramOffset(sym *symbol) int {
	f := sym.frame
	k := sym.nParams
	if k > 3 {
		k = 3
	}
	j := sym.paramIndex
	if j < k {
		return f.above + (k - j)
	}
	return f.above - 1 - (j - 3)
}

// loadVar pushes a variable's value.
func (g *gen) loadVar(sym *symbol, p pos) {
	switch sym.kind {
	case symConst:
		g.b.Fn(isa.FnLdc, sym.value)
	case symVar, symRep:
		path := g.pathOf(sym, p)
		if path.indirect {
			g.b.Fn(isa.FnLdl, int64(path.linkSlot))
			g.b.Fn(isa.FnLdnl, int64(path.delta+sym.offset))
		} else {
			g.b.Fn(isa.FnLdl, int64(path.delta+sym.offset))
		}
	case symParam:
		off := int64(paramOffset(sym))
		g.b.Fn(isa.FnLdl, off)
		if sym.paramKind == paramVar && !sym.array {
			g.b.Fn(isa.FnLdnl, 0)
		}
	case symTable:
		g.fail(p, "string table %q needs a subscript", sym.name)
	default:
		g.fail(p, "%q cannot be loaded", sym.name)
	}
}

// storeVar pops the stack into a scalar variable.
func (g *gen) storeVar(sym *symbol, p pos) {
	switch sym.kind {
	case symVar, symRep:
		path := g.pathOf(sym, p)
		if path.indirect {
			g.b.Fn(isa.FnLdl, int64(path.linkSlot))
			g.b.Fn(isa.FnStnl, int64(path.delta+sym.offset))
		} else {
			g.b.Fn(isa.FnStl, int64(path.delta+sym.offset))
		}
	case symParam:
		g.b.Fn(isa.FnLdl, int64(paramOffset(sym)))
		g.b.Fn(isa.FnStnl, 0)
	default:
		g.fail(p, "%q cannot be assigned", sym.name)
	}
}

// loadAddr pushes the address of a scalar variable or channel word.
func (g *gen) loadAddr(sym *symbol, p pos) {
	switch sym.kind {
	case symVar, symChan, symRep:
		path := g.pathOf(sym, p)
		if path.indirect {
			g.b.Fn(isa.FnLdl, int64(path.linkSlot))
			g.b.Fn(isa.FnLdnlp, int64(path.delta+sym.offset))
		} else {
			g.b.Fn(isa.FnLdlp, int64(path.delta+sym.offset))
		}
	case symParam:
		g.b.Fn(isa.FnLdl, int64(paramOffset(sym)))
	default:
		g.fail(p, "%q has no address", sym.name)
	}
}

// loadBase pushes the base address of an array (variable, channel or
// string table).
func (g *gen) loadBase(sym *symbol, p pos) {
	switch sym.kind {
	case symParam:
		g.b.Fn(isa.FnLdl, int64(paramOffset(sym)))
	case symTable:
		g.b.Ldpi(g.tableLabel(sym))
	default:
		g.loadAddr(sym, p)
	}
}

// chanAddr pushes the address of a channel word.
func (g *gen) chanAddr(ch *nameExpr, idx expr) {
	sym := ch.sym
	if sym.placed {
		g.b.Fn(isa.FnLdc, sym.placeAddr)
		return
	}
	if idx != nil {
		g.evalExpr(idx)
		g.loadBase(sym, ch.pos)
		g.b.Op(isa.OpWsub)
		return
	}
	if sym.array {
		g.fail(ch.pos, "channel array %q needs a subscript", ch.name)
	}
	g.loadAddr(sym, ch.pos)
}

// ---- expressions ----------------------------------------------------

func (g *gen) evalExpr(e expr) {
	if v, ok := foldConst(e); ok {
		g.b.Fn(isa.FnLdc, v)
		return
	}
	switch v := e.(type) {
	case *numberExpr:
		g.b.Fn(isa.FnLdc, v.val)
	case *nameExpr:
		g.loadVar(v.sym, v.pos)
	case *indexExpr:
		g.evalExpr(v.index)
		g.loadBase(v.base.sym, v.pos)
		if v.byteSel {
			// a[BYTE e]: byte subscript and load byte.
			g.b.Op(isa.OpBsub)
			g.b.Op(isa.OpLb)
			return
		}
		g.b.Op(isa.OpWsub)
		g.b.Fn(isa.FnLdnl, 0)
	case *unaryExpr:
		switch v.op {
		case "-":
			g.b.Fn(isa.FnLdc, 0)
			g.evalExpr(v.arg)
			g.b.Op(isa.OpSub)
		case "NOT":
			g.evalExpr(v.arg)
			g.b.Fn(isa.FnEqc, 0)
		default:
			g.fail(v.pos, "unknown unary operator %q", v.op)
		}
	case *binaryExpr:
		first, second, k := operands(v, g.wordBytes)
		if second == nil {
			g.evalExpr(first)
			if v.op == "+" || v.op == "-" {
				g.b.Fn(isa.FnAdc, k)
				return
			}
			g.b.Fn(isa.FnEqc, k)
			if v.op == "<>" {
				g.b.Fn(isa.FnEqc, 0)
			}
			return
		}
		fn, _ := exprShape(first, g.wordBytes)
		sn, _ := exprShape(second, g.wordBytes)
		if max(fn, sn+1) > 3 {
			// Spill: the second operand into a temporary.
			g.evalExpr(second)
			t := g.allocTemp(v.pos)
			g.b.Fn(isa.FnStl, int64(t))
			g.evalExpr(first)
			g.b.Fn(isa.FnLdl, int64(t))
			g.freeTemp()
		} else {
			g.evalExpr(first)
			g.evalExpr(second)
		}
		g.binaryOp(v)
	default:
		g.fail(posOfExpr(e), "unhandled expression")
	}
}

// operands says what a binary expression pushes, first then second,
// for its operation to take as B and A.  Where the operation can take
// a constant in its instruction instead (adc for + and -, eqc for =
// and <>), second is nil and k is that constant as a word: a + or =
// with its constant on the left is turned round, and a - whose
// constant is the most negative word stays ldc and sub, as its
// negation does not fit adc.  < and >= push right before left, so
// that gt needs no rev.
func operands(v *binaryExpr, wordBytes int) (first, second expr, k int64) {
	switch v.op {
	case "+", "-", "=", "<>":
		e := v.left
		c, ok := foldConst(v.right)
		if !ok && v.op != "-" {
			e = v.right
			c, ok = foldConst(v.left)
		}
		if !ok {
			break
		}
		k = wordValue(c, wordBytes)
		if v.op == "-" {
			if k == int64(-1)<<(8*wordBytes-1) {
				break
			}
			k = -k
		}
		return e, nil, k
	case "<", ">=":
		return v.right, v.left, 0
	}
	return v.left, v.right, 0
}

// wordValue is v as a machine word of wordBytes bytes holds it.
func wordValue(v int64, wordBytes int) int64 {
	shift := uint(64 - 8*wordBytes)
	return v << shift >> shift
}

// binaryOp emits the operation for a binary expression whose operands
// are on the stack (operands' first in B, second in A).
func (g *gen) binaryOp(v *binaryExpr) {
	switch v.op {
	case "+":
		g.b.Op(isa.OpAdd)
	case "-":
		g.b.Op(isa.OpSub)
	case "*":
		g.b.Op(isa.OpMul)
	case "/":
		g.b.Op(isa.OpDiv)
	case "\\":
		g.b.Op(isa.OpRem)
	case "/\\":
		g.b.Op(isa.OpAnd)
	case "\\/":
		g.b.Op(isa.OpOr)
	case "><":
		g.b.Op(isa.OpXor)
	case "<<":
		g.b.Op(isa.OpShl)
	case ">>":
		g.b.Op(isa.OpShr)
	case "AND":
		g.b.Op(isa.OpAnd)
	case "OR":
		g.b.Op(isa.OpOr)
	case "=":
		g.b.Op(isa.OpDiff)
		g.b.Fn(isa.FnEqc, 0)
	case "<>":
		g.b.Op(isa.OpDiff)
		g.b.Fn(isa.FnEqc, 0)
		g.b.Fn(isa.FnEqc, 0)
	case ">":
		g.b.Op(isa.OpGt)
	case "<":
		g.b.Op(isa.OpGt)
	case ">=":
		g.b.Op(isa.OpGt)
		g.b.Fn(isa.FnEqc, 0)
	case "<=":
		g.b.Op(isa.OpGt)
		g.b.Fn(isa.FnEqc, 0)
	case "AFTER":
		// l AFTER r  ==  (l - r) > 0, a modular comparison.
		g.b.Op(isa.OpDiff)
		g.b.Fn(isa.FnLdc, 0)
		g.b.Op(isa.OpGt)
	default:
		g.fail(v.pos, "unknown operator %q", v.op)
	}
}

// ---- processes ------------------------------------------------------

func (g *gen) process(p process) {
	// Source map for the profiler: code generated for this process node
	// derives from its source line.  Constructs that only arrange their
	// children (SEQ, declarations) still get a mark, which the next
	// child's own mark immediately supersedes at the same offset.
	if line := p.procPos().line; line > 0 {
		g.b.Mark(line)
	}
	switch v := p.(type) {
	case *skipProc:
		// SKIP has no effect and terminates.
	case *stopProc:
		// STOP never proceeds: the process stops and is never
		// rescheduled.
		g.b.Op(isa.OpStopp)
	case *declProc:
		for _, d := range v.decls {
			g.declaration(d)
		}
		g.process(v.body)
	case *assignProc:
		g.assign(v)
	case *outputProc:
		g.output(v)
	case *inputProc:
		g.input(v)
	case *timeInputProc:
		g.timeInput(v)
	case *seqProc:
		g.seq(v)
	case *whileProc:
		g.while(v)
	case *ifProc:
		g.ifProcess(v)
	case *parProc:
		g.par(v)
	case *altProc:
		g.alt(v)
	case *callProc:
		g.call(v)
	default:
		g.fail(p.procPos(), "unhandled process")
	}
}

func (g *gen) declaration(d decl) {
	switch v := d.(type) {
	case *chanDecl:
		// Channel words are initialised to NotProcess at declaration.
		for _, item := range v.items {
			if item.sym.placed {
				continue
			}
			n := 1
			if item.sym.array {
				n = item.sym.size
			}
			for i := 0; i < n; i++ {
				g.b.Op(isa.OpMint)
				g.storeSlot(item.sym, i, item.pos)
			}
		}
	case *procDecl:
		if info := v.sym.proc; !info.queued {
			// Declarations precede their calls, here as in the source,
			// so every call finds its PROC labelled.
			info.queued = true
			info.label = g.b.NewLabel()
			g.queue = append(g.queue, info)
		}
	case *varDecl, *defDecl, *placeDecl:
		// No code.
	}
}

// storeSlot stores the stack top into slot offset+i of a frame symbol.
func (g *gen) storeSlot(sym *symbol, i int, p pos) {
	path := g.pathOf(sym, p)
	if path.indirect {
		g.b.Fn(isa.FnLdl, int64(path.linkSlot))
		g.b.Fn(isa.FnStnl, int64(path.delta+sym.offset+i))
	} else {
		g.b.Fn(isa.FnStl, int64(path.delta+sym.offset+i))
	}
}

func (g *gen) assign(v *assignProc) {
	g.evalExpr(v.value)
	if v.index != nil {
		g.evalExpr(v.index)
		g.loadBase(v.target.sym, v.pos)
		if v.byteSel {
			// a[BYTE e] := v: compute the byte address, then store
			// byte (A = address, B = value).
			g.b.Op(isa.OpBsub)
			g.b.Op(isa.OpSb)
			return
		}
		g.b.Op(isa.OpWsub)
		g.b.Fn(isa.FnStnl, 0)
		return
	}
	g.storeVar(v.target.sym, v.pos)
}

func (g *gen) output(v *outputProc) {
	for _, e := range v.values {
		if arr, ok := wholeArray(e); ok {
			// Send the array as one message.
			g.loadBase(arr.sym, arr.pos)
			g.chanAddr(v.ch, v.chIdx)
			g.b.Fn(isa.FnLdc, int64(arr.sym.size*g.wordBytes))
			g.b.Op(isa.OpOut)
			continue
		}
		g.evalExpr(e)
		g.chanAddr(v.ch, v.chIdx)
		g.b.Op(isa.OpOutword)
	}
}

// wholeArray reports whether an expression names an entire array.
func wholeArray(e expr) (*nameExpr, bool) {
	n, ok := e.(*nameExpr)
	if !ok || n.sym == nil || !n.sym.array {
		return nil, false
	}
	return n, true
}

func (g *gen) input(v *inputProc) {
	for _, tgt := range v.targets {
		switch {
		case tgt.name == nil:
			// c ? ANY: read one word into the scratch slot.
			g.b.Fn(isa.FnLdlp, 0)
			g.chanAddr(v.ch, v.chIdx)
			g.b.Fn(isa.FnLdc, int64(g.wordBytes))
			g.b.Op(isa.OpIn)
		case tgt.index == nil && tgt.name.sym.array:
			// Whole-array receive.
			g.loadBase(tgt.name.sym, tgt.name.pos)
			g.chanAddr(v.ch, v.chIdx)
			g.b.Fn(isa.FnLdc, int64(tgt.name.sym.size*g.wordBytes))
			g.b.Op(isa.OpIn)
		case tgt.index != nil:
			g.evalExpr(tgt.index)
			g.loadBase(tgt.name.sym, tgt.name.pos)
			g.b.Op(isa.OpWsub)
			g.chanAddr(v.ch, v.chIdx)
			g.b.Fn(isa.FnLdc, int64(g.wordBytes))
			g.b.Op(isa.OpIn)
		default:
			g.loadAddr(tgt.name.sym, tgt.name.pos)
			g.chanAddr(v.ch, v.chIdx)
			g.b.Fn(isa.FnLdc, int64(g.wordBytes))
			g.b.Op(isa.OpIn)
		}
	}
}

func (g *gen) timeInput(v *timeInputProc) {
	if v.after != nil {
		// TIME ? AFTER e: a delayed input (paper, 2.2.2).
		g.evalExpr(v.after)
		g.b.Op(isa.OpTin)
		return
	}
	g.b.Op(isa.OpLdtimer)
	if v.index != nil {
		g.evalExpr(v.index)
		g.loadBase(v.target.sym, v.pos)
		g.b.Op(isa.OpWsub)
		g.b.Fn(isa.FnStnl, 0)
		return
	}
	g.storeVar(v.target.sym, v.pos)
}

func (g *gen) seq(v *seqProc) {
	if v.rep == nil {
		for _, sub := range v.procs {
			g.process(sub)
		}
		return
	}
	// Replicated SEQ: a loop over the two-word control block (index,
	// count) using the loop end instruction.
	rep := v.rep.sym
	path := g.pathOf(rep, v.rep.pos)
	if path.indirect {
		g.fail(v.rep.pos, "internal: replicator allocated in unreachable frame")
	}
	idx := int64(path.delta + rep.offset)
	g.evalExpr(v.rep.base)
	g.b.Fn(isa.FnStl, idx)
	g.evalExpr(v.rep.count)
	g.b.Fn(isa.FnStl, idx+1)
	start := g.b.NewLabel()
	after := g.b.NewLabel()
	g.b.Fn(isa.FnLdl, idx+1)
	g.b.Branch(isa.FnCj, after)
	g.b.Define(start)
	g.process(v.procs[0])
	g.b.Fn(isa.FnLdlp, idx)
	g.b.Diff(isa.FnLdc, after, start)
	g.b.Op(isa.OpLend)
	g.b.Define(after)
}

// land places a label that code before it jumps to, dropping the jump
// that would land on the instruction after it anyway.
func (g *gen) land(l asm.Label) {
	g.b.DropJump(l)
	g.b.Define(l)
}

// while compiles a WHILE.  A condition that folds is not tested: TRUE
// loops for ever, and FALSE compiles to nothing.
func (g *gen) while(v *whileProc) {
	k, konst := foldConst(v.cond)
	if konst && k == 0 {
		return
	}
	start := g.b.NewLabel()
	end := g.b.NewLabel()
	g.b.Define(start)
	if !konst {
		g.evalExpr(v.cond)
		g.b.Branch(isa.FnCj, end)
	}
	g.process(v.body)
	g.b.Branch(isa.FnJ, start)
	g.b.Define(end)
}

// ifProcess compiles an IF.  A guard that folds is not tested: a FALSE
// one's branch compiles to nothing, and a TRUE one's compiles to its
// body alone, which ends the IF.
func (g *gen) ifProcess(v *ifProc) {
	if v.config {
		// A configuration choice was made at compile time.
		g.process(v.branches[v.chosen].body)
		return
	}
	end := g.b.NewLabel()
	for _, br := range v.branches {
		if k, konst := foldConst(br.cond); konst {
			if k != 0 {
				g.process(br.body)
				g.land(end)
				return
			}
			continue
		}
		next := g.b.NewLabel()
		g.evalExpr(br.cond)
		g.b.Branch(isa.FnCj, next)
		g.process(br.body)
		g.b.Branch(isa.FnJ, end)
		g.b.Define(next)
	}
	// No condition true: IF behaves like STOP.
	g.b.Op(isa.OpStopp)
	g.b.Define(end)
}

// ---- PAR ------------------------------------------------------------

func (g *gen) par(v *parProc) {
	if v.rep != nil {
		g.replicatedPar(v)
		return
	}
	info := v.info
	n := len(v.procs)
	if n == 0 {
		return
	}
	if n == 1 && !v.pri {
		// Degenerate PAR: run the single component in its frame.
		g.enterStatic(info.frames[0], info.deltas[0])
		delta := info.deltas[0]
		g.b.Fn(isa.FnAjw, int64(delta))
		g.process(v.procs[0])
		g.b.Fn(isa.FnAjw, int64(-delta))
		g.leave()
		return
	}

	cont := g.b.NewLabel()
	compLabels := make([]asm.Label, n)
	for i := range compLabels {
		compLabels[i] = g.b.NewLabel()
	}

	// Join block: continuation address at slot 0, count at slot 1.
	g.b.Ldpi(cont)
	g.b.Fn(isa.FnStl, 0)
	g.b.Fn(isa.FnLdc, int64(n))
	g.b.Fn(isa.FnStl, 1)

	// The component the current process becomes: the first for plain
	// PAR; for PRI PAR the first component runs at high priority and
	// is started with run process, the current process becoming the
	// second component.
	inline := 0
	if v.pri {
		inline = 1
		g.startHigh(compLabels[0], info.deltas[0])
	}
	for i := 0; i < n; i++ {
		if i == inline {
			continue
		}
		if v.pri && i == 0 {
			continue // already started
		}
		afterStartp := g.b.NewLabel()
		g.b.Diff(isa.FnLdc, compLabels[i], afterStartp)
		g.b.Fn(isa.FnLdlp, int64(info.deltas[i]))
		g.b.Op(isa.OpStartp)
		g.b.Define(afterStartp)
	}

	// Become the inline component.
	g.b.Fn(isa.FnAjw, int64(info.deltas[inline]))
	g.enterStatic(info.frames[inline], info.deltas[inline])
	g.process(v.procs[inline])
	g.b.Fn(isa.FnLdlp, int64(-info.deltas[inline]))
	g.b.Op(isa.OpEndp)
	g.leave()

	// Out-of-line components.
	for i := 0; i < n; i++ {
		if i == inline {
			continue
		}
		g.b.Define(compLabels[i])
		g.enterStatic(info.frames[i], info.deltas[i])
		g.process(v.procs[i])
		g.b.Fn(isa.FnLdlp, int64(-info.deltas[i]))
		g.b.Op(isa.OpEndp)
		g.leave()
	}

	g.b.Define(cont)
}

// startHigh starts a component at priority 0 (PRI PAR: "a parallel
// construct may be configured to prioritize its components").
func (g *gen) startHigh(label asm.Label, delta int) {
	g.b.Ldpi(label)
	g.b.Fn(isa.FnLdlp, int64(delta))
	g.b.Fn(isa.FnStnl, -1) // new process's saved Iptr
	g.b.Fn(isa.FnLdlp, int64(delta))
	g.b.Op(isa.OpRunp) // even workspace descriptor: priority 0
}

func (g *gen) replicatedPar(v *parProc) {
	info := v.info
	comp := info.frames[0]
	n := info.count
	rep := v.rep.sym
	linkSlot := rep.offset + 1

	cont := g.b.NewLabel()
	body := g.b.NewLabel()

	g.b.Ldpi(cont)
	g.b.Fn(isa.FnStl, 0)
	g.b.Fn(isa.FnLdc, int64(n+1))
	g.b.Fn(isa.FnStl, 1)

	for k := 0; k < n; k++ {
		delta := info.deltas[0] - k*info.stride
		// Copy k's replicator value and static link.
		g.evalExpr(v.rep.base)
		if k > 0 {
			g.b.Fn(isa.FnAdc, int64(k))
		}
		g.b.Fn(isa.FnStl, int64(delta+rep.offset))
		g.b.Fn(isa.FnLdlp, 0)
		g.b.Fn(isa.FnStl, int64(delta+linkSlot))
		afterStartp := g.b.NewLabel()
		g.b.Diff(isa.FnLdc, body, afterStartp)
		g.b.Fn(isa.FnLdlp, int64(delta))
		g.b.Op(isa.OpStartp)
		g.b.Define(afterStartp)
	}
	// The current process contributes the (n+1)th completion.
	g.b.Fn(isa.FnLdlp, 0)
	g.b.Op(isa.OpEndp)

	// Shared body: all copies execute the same code, reaching outer
	// frames through the static link.
	g.b.Define(body)
	g.enterLinked(comp, linkSlot)
	g.process(v.procs[0])
	// Rejoin: the parent frame base is in the link slot.
	g.b.Fn(isa.FnLdl, int64(linkSlot))
	g.b.Op(isa.OpEndp)
	g.leave()

	g.b.Define(cont)
}

// ---- ALT ------------------------------------------------------------

// operandPlan arranges for a guard operand to be pushed when part of
// the evaluation stack is already occupied: an operand too deep for
// the remaining slots is evaluated into a temporary up front.
type operandPlan struct {
	temp int // -1 when pushed directly
	emit func()
}

// planOperand prepares an operand whose direct evaluation needs `need`
// slots for a position where only `avail` slots remain free.
func (g *gen) planOperand(p pos, need, avail int, emit func()) operandPlan {
	if need <= avail {
		return operandPlan{temp: -1, emit: emit}
	}
	emit()
	t := g.allocTemp(p)
	g.b.Fn(isa.FnStl, int64(t))
	return operandPlan{temp: t}
}

func (g *gen) pushOperand(pl operandPlan) {
	if pl.temp >= 0 {
		g.b.Fn(isa.FnLdl, int64(pl.temp))
		return
	}
	pl.emit()
}

func (g *gen) releaseOperand(pl operandPlan) {
	if pl.temp >= 0 {
		g.freeTemp()
	}
}

// planGuardCond prepares a guard's boolean for a context with avail
// free slots.
func (g *gen) planGuardCond(br *altBranch, avail int) operandPlan {
	if br.cond == nil {
		return operandPlan{temp: -1, emit: func() { g.b.Fn(isa.FnLdc, 1) }}
	}
	need, _ := exprShape(br.cond, g.wordBytes)
	return g.planOperand(br.pos, need, avail, func() { g.evalExpr(br.cond) })
}

// planChanAddr prepares a channel address for a context with avail
// free slots.
func (g *gen) planChanAddr(in *inputProc, avail int) operandPlan {
	need := 1
	if in.chIdx != nil {
		idxNeed, _ := exprShape(in.chIdx, g.wordBytes)
		need = max(idxNeed, 2)
	}
	return g.planOperand(in.pos, need, avail, func() { g.chanAddr(in.ch, in.chIdx) })
}

// planTime prepares a timer guard's time for a context with avail free
// slots.
func (g *gen) planTime(ti *timeInputProc, avail int) operandPlan {
	need, _ := exprShape(ti.after, g.wordBytes)
	return g.planOperand(ti.pos, need, avail, func() { g.evalExpr(ti.after) })
}

func (g *gen) alt(v *altProc) {
	if v.rep != nil {
		g.replicatedAlt(v)
		return
	}
	timed := v.timed
	end := g.b.NewLabel()
	done := g.b.NewLabel()
	branchLabels := make([]asm.Label, len(v.branches))
	for i := range branchLabels {
		branchLabels[i] = g.b.NewLabel()
	}

	if timed {
		g.b.Op(isa.OpTalt)
	} else {
		g.b.Op(isa.OpAlt)
	}

	// Enable each guard in textual order (which is also the priority
	// order of PRI ALT).  With the guard boolean on the stack, only
	// two slots remain for the channel address or time.
	for i := range v.branches {
		br := &v.branches[i]
		switch in := br.input.(type) {
		case *inputProc:
			chp := g.planChanAddr(in, 2)
			g.guardCond(br)
			g.pushOperand(chp)
			g.b.Op(isa.OpEnbc)
			g.releaseOperand(chp)
		case *timeInputProc:
			tp := g.planTime(in, 2)
			g.guardCond(br)
			g.pushOperand(tp)
			g.b.Op(isa.OpEnbt)
			g.releaseOperand(tp)
		case *skipProc:
			g.guardCond(br)
			g.b.Op(isa.OpEnbs)
		}
	}

	if timed {
		g.b.Op(isa.OpTaltwt)
	} else {
		g.b.Op(isa.OpAltwt)
	}

	// Disable in the same order; the first ready guard is selected.
	// The selection offset and guard occupy two slots, leaving one.
	for i := range v.branches {
		br := &v.branches[i]
		switch in := br.input.(type) {
		case *inputProc:
			chp := g.planChanAddr(in, 1)
			cp := g.planGuardCond(br, 2)
			g.b.Diff(isa.FnLdc, branchLabels[i], end)
			g.pushOperand(cp)
			g.pushOperand(chp)
			g.b.Op(isa.OpDisc)
			g.releaseOperand(cp)
			g.releaseOperand(chp)
		case *timeInputProc:
			tp := g.planTime(in, 1)
			cp := g.planGuardCond(br, 2)
			g.b.Diff(isa.FnLdc, branchLabels[i], end)
			g.pushOperand(cp)
			g.pushOperand(tp)
			g.b.Op(isa.OpDist)
			g.releaseOperand(cp)
			g.releaseOperand(tp)
		case *skipProc:
			cp := g.planGuardCond(br, 2)
			g.b.Diff(isa.FnLdc, branchLabels[i], end)
			g.pushOperand(cp)
			g.b.Op(isa.OpDiss)
			g.releaseOperand(cp)
		}
	}
	g.b.Op(isa.OpAltend)
	g.b.Define(end)

	for i := range v.branches {
		br := &v.branches[i]
		g.b.Define(branchLabels[i])
		if in, ok := br.input.(*inputProc); ok {
			g.input(in)
		}
		g.process(br.body)
		g.b.Branch(isa.FnJ, done)
	}
	g.land(done)
}

func (g *gen) guardCond(br *altBranch) {
	if br.cond != nil {
		g.evalExpr(br.cond)
		return
	}
	g.b.Fn(isa.FnLdc, 1)
}

// replicatedAlt compiles "ALT i = [base FOR count]" with one channel
// guard: the guards are enabled and disabled in runtime loops, and the
// selection offset recorded by disable channel is the guard's index
// relative to the base, so workspace slot 0 identifies the selected
// channel afterwards.
func (g *gen) replicatedAlt(v *altProc) {
	br := &v.branches[0]
	in := br.input.(*inputProc)
	rep := v.rep.sym
	path := g.pathOf(rep, v.rep.pos)
	if path.indirect {
		g.fail(v.rep.pos, "internal: replicated ALT index in unreachable frame")
	}
	idx := int64(path.delta + rep.offset)
	cnt := idx + 1

	initLoop := func() {
		g.evalExpr(v.rep.base)
		g.b.Fn(isa.FnStl, idx)
		g.evalExpr(v.rep.count)
		g.b.Fn(isa.FnStl, cnt)
	}
	advance := func() {
		g.b.Fn(isa.FnLdl, idx)
		g.b.Fn(isa.FnAdc, 1)
		g.b.Fn(isa.FnStl, idx)
		g.b.Fn(isa.FnLdl, cnt)
		g.b.Fn(isa.FnAdc, -1)
		g.b.Fn(isa.FnStl, cnt)
	}

	g.b.Op(isa.OpAlt)

	// Enable loop.
	enTop := g.b.NewLabel()
	enDone := g.b.NewLabel()
	initLoop()
	g.b.Define(enTop)
	g.b.Fn(isa.FnLdl, cnt)
	g.b.Branch(isa.FnCj, enDone)
	chp := g.planChanAddr(in, 2)
	g.guardCond(br)
	g.pushOperand(chp)
	g.b.Op(isa.OpEnbc)
	g.releaseOperand(chp)
	advance()
	g.b.Branch(isa.FnJ, enTop)
	g.b.Define(enDone)

	g.b.Op(isa.OpAltwt)

	// Disable loop: the selection offset pushed for each guard is the
	// index distance from the base.  The base is loop-invariant, so it
	// is parked in a temporary.
	tBase := g.allocTemp(v.rep.pos)
	g.evalExpr(v.rep.base)
	g.b.Fn(isa.FnStl, int64(tBase))
	disTop := g.b.NewLabel()
	disDone := g.b.NewLabel()
	initLoop()
	g.b.Define(disTop)
	g.b.Fn(isa.FnLdl, cnt)
	g.b.Branch(isa.FnCj, disDone)
	chp = g.planChanAddr(in, 1)
	cp := g.planGuardCond(br, 2)
	g.b.Fn(isa.FnLdl, idx)
	g.b.Fn(isa.FnLdl, int64(tBase))
	g.b.Op(isa.OpDiff) // idx - base
	g.pushOperand(cp)
	g.pushOperand(chp)
	g.b.Op(isa.OpDisc)
	g.releaseOperand(cp)
	g.releaseOperand(chp)
	advance()
	g.b.Branch(isa.FnJ, disTop)
	g.b.Define(disDone)

	// Selected index: slot 0 holds (i - base); restore i and run the
	// input and body.  (No alt end: the offset is data, not a jump.)
	g.b.Fn(isa.FnLdl, 0)
	g.b.Fn(isa.FnLdl, int64(tBase))
	g.b.Op(isa.OpSum)
	g.b.Fn(isa.FnStl, idx)
	g.freeTemp()
	g.input(in)
	g.process(br.body)
}

// ---- calls ----------------------------------------------------------

func (g *gen) call(v *callProc) {
	info := v.sym.proc
	if !info.queued {
		g.fail(v.pos, "internal: PROC %q called before its declaration was generated", v.name)
	}
	params := info.params
	n := len(v.args)
	nReg := n
	if nReg > 3 {
		nReg = 3
	}

	// Arguments beyond the third: store below the caller's workspace.
	for j := 3; j < n; j++ {
		g.evalArg(v.args[j], params[j])
		g.b.Fn(isa.FnStl, int64(-(5 + (j - 3))))
	}

	// Register arguments: simple ones load directly; otherwise park in
	// temporaries and reload so nothing is lost to stack overflow.
	allSimple := true
	for j := 0; j < nReg; j++ {
		if !simpleArg(v.args[j], params[j]) {
			allSimple = false
			break
		}
	}
	if allSimple {
		for j := 0; j < nReg; j++ {
			g.evalArg(v.args[j], params[j])
		}
	} else {
		temps := make([]int, nReg)
		for j := 0; j < nReg; j++ {
			g.evalArg(v.args[j], params[j])
			temps[j] = g.allocTemp(v.pos)
			g.b.Fn(isa.FnStl, int64(temps[j]))
		}
		for j := 0; j < nReg; j++ {
			g.b.Fn(isa.FnLdl, int64(temps[j]))
		}
		for range temps {
			g.freeTemp()
		}
	}
	g.b.Branch(isa.FnCall, info.label)
}

// simpleArg reports whether an argument compiles to a single load.
func simpleArg(a expr, formal *symbol) bool {
	if formal.paramKind == paramValue && !formal.array {
		switch v := a.(type) {
		case *numberExpr:
			return true
		case *nameExpr:
			return v.sym.kind == symConst || v.sym.kind == symRep ||
				(v.sym.kind == symVar && !v.sym.array) ||
				(v.sym.kind == symParam && v.sym.paramKind == paramValue && !v.sym.array)
		}
		return false
	}
	if _, ok := a.(*nameExpr); ok {
		return true
	}
	return false
}

// evalArg pushes one actual argument.
func (g *gen) evalArg(a expr, formal *symbol) {
	switch formal.paramKind {
	case paramValue:
		if formal.array {
			n := a.(*nameExpr)
			g.loadBase(n.sym, n.pos)
			return
		}
		g.evalExpr(a)
	case paramVar:
		if formal.array {
			n := a.(*nameExpr)
			g.loadBase(n.sym, n.pos)
			return
		}
		switch v := a.(type) {
		case *nameExpr:
			g.loadAddr(v.sym, v.pos)
		case *indexExpr:
			g.evalExpr(v.index)
			g.loadBase(v.base.sym, v.pos)
			g.b.Op(isa.OpWsub)
		}
	case paramChan:
		switch v := a.(type) {
		case *nameExpr:
			if formal.array {
				g.loadBase(v.sym, v.pos)
				return
			}
			g.chanAddr(v, nil)
		case *indexExpr:
			g.chanAddr(v.base, v.index)
		}
	}
}

// emitProc generates one PROC body as a subroutine.
func (g *gen) emitProc(info *procInfo) {
	f := info.frame
	g.b.Define(info.label)
	g.b.Fn(isa.FnAjw, int64(-f.above))
	g.enterProc(f)
	g.process(info.decl.body)
	g.leave()
	g.b.Fn(isa.FnAjw, int64(f.above))
	g.b.Op(isa.OpRet)
}
