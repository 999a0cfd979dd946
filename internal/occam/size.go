package occam

import (
	"cmp"
	"slices"
)

// Workspace sizing.  The occam compiler performs all storage
// allocation: "the processor does not need to support the dynamic
// allocation of storage as the occam compiler is able to perform the
// allocation of space to concurrent processes" (paper, 3.2.4).
//
// Each frame needs `above` words (slots 0 and 1, locals, replicator
// blocks, spill temporaries, extra parameter slots) at non-negative
// offsets, and `below` words beneath it: the five scheduler slots plus
// the deepest requirement of any call frame or PAR component region
// beneath the frame base.

// schedulerSlots is the per-process reservation below the workspace
// pointer (saved Iptr, list link, state/pointer, timer link, time).
const schedulerSlots = 5

// sizer computes frame requirements bottom-up.
type sizer struct {
	c *checker
}

// sizeProgram sizes the root frame and every PROC frame, then lays
// every frame out.
func (c *checker) sizeProgram(prog process, root *frame) {
	s := &sizer{c: c}
	s.sizeFrame(root, prog)
	c.layout()
}

// layout gives each frame's locals, replicator blocks and spill
// temporaries their offsets after slots 0 and 1: scalars before
// arrays, the most used first among each, ties in declaration order.
// A frame's hottest operands then sit in the sixteen words a one-byte
// ldl, stl or ldlp reaches (paper, 3.2.3).  The temporaries are one
// block, placed as a scalar used tempUses times.
func (c *checker) layout() {
	slices.SortStableFunc(c.locals, func(a, b *symbol) int {
		switch {
		case a.frame != b.frame:
			return a.frame.id - b.frame.id
		case a.array != b.array:
			if a.array {
				return 1
			}
			return -1
		}
		return cmp.Compare(b.uses, a.uses)
	})
	var f *frame
	off, tempsPlaced := 0, false
	for _, sym := range c.locals {
		if sym.frame != f {
			f = sym.frame
			off, tempsPlaced = frameReserved, f.maxTemp == 0
		}
		if !tempsPlaced && (sym.array || sym.uses < f.tempUses) {
			f.tempBase = off
			off += f.maxTemp
			tempsPlaced = true
		}
		sym.offset = off
		off += sym.words()
	}
}

func (s *sizer) sizeProc(info *procInfo) {
	if info.frame.above > 0 {
		return // sized already
	}
	s.sizeFrame(info.frame, info.decl.body)
}

// sizeFrame computes above/below for a frame whose body is the given
// process.
func (s *sizer) sizeFrame(f *frame, body process) {
	temps, depth := s.process(body, f)
	f.maxTemp = temps
	f.tempBase = f.nLocal // until layout moves them down
	f.above = f.nLocal + f.maxTemp + f.extraParams
	f.below = schedulerSlots + depth
}

// spill counts a statement's use of its frame's spill temporaries, if
// it needs any, at the checker's weight, which the sizer keeps as the
// checker did, and returns how many it needs.
func (s *sizer) spill(f *frame, temps int) int {
	if temps > 0 {
		f.tempUses = addUses(f.tempUses, s.c.weight)
	}
	return temps
}

// process returns (spill temporaries, words needed below the frame
// base) for one statement.
func (s *sizer) process(p process, f *frame) (temps, depth int) {
	switch v := p.(type) {
	case *skipProc, *stopProc:
		return 0, 0
	case *declProc:
		// A PROC is sized where it is declared, which is before any
		// call of it, and at the weight its body was checked at.
		for _, d := range v.decls {
			if pd, ok := d.(*procDecl); ok {
				s.sizeProc(pd.sym.proc)
			}
		}
		return s.process(v.body, f)
	case *assignProc:
		t := s.temps(v.value)
		if v.index != nil {
			// Value occupies one stack slot while the index and base
			// are computed.
			t = max(t, 1+s.temps(v.index))
		}
		return s.spill(f, t), 0
	case *outputProc:
		t := s.temps(v.chIdx)
		for _, e := range v.values {
			t = max(t, s.temps(e))
		}
		return s.spill(f, t), 0
	case *inputProc:
		return s.spill(f, s.inputTemps(v)), 0
	case *timeInputProc:
		return s.spill(f, max(s.temps(v.after), s.temps(v.index))), 0
	case *seqProc:
		t, d, w := 0, 0, s.c.weight
		if v.rep != nil {
			t = s.spill(f, max(s.temps(v.rep.base), s.temps(v.rep.count)))
			s.c.weight = inLoop(w)
		}
		for _, sub := range v.procs {
			st, sd := s.process(sub, f)
			t, d = max(t, st), max(d, sd)
		}
		s.c.weight = w
		return t, d
	case *whileProc:
		w := s.c.weight
		s.c.weight = inLoop(w)
		t, d := s.process(v.body, f)
		t = max(t, s.spill(f, s.temps(v.cond)))
		s.c.weight = w
		return t, d
	case *ifProc:
		if v.config {
			return s.process(v.branches[v.chosen].body, f)
		}
		t, d := 0, 0
		for _, br := range v.branches {
			bt, bd := s.process(br.body, f)
			t = max(t, bt, s.spill(f, s.temps(br.cond)))
			d = max(d, bd)
		}
		return t, d
	case *altProc:
		// Guard operands may be parked in temporaries while the
		// selection offset and guard boolean occupy the stack (see
		// planOperand in gen.go): reserve two slots per alternative
		// plus whatever the operand expressions themselves spill.  A
		// replicated ALT additionally parks the loop-invariant base,
		// in its enable and disable loops.
		t, d := 0, 0
		if v.rep != nil {
			w := s.c.weight
			s.c.weight = inLoop(w)
			t = 1 + max(s.temps(v.rep.base), s.temps(v.rep.count))
			in := v.branches[0].input.(*inputProc)
			t = max(t, 3+s.inputTemps(in), 3+s.temps(v.branches[0].cond))
			s.spill(f, t)
			s.c.weight = w
			bt, bd := s.process(v.branches[0].body, f)
			return max(t, bt), max(d, bd)
		}
		for _, br := range v.branches {
			at := 0
			if br.cond != nil {
				at = 2 + s.temps(br.cond)
			}
			switch in := br.input.(type) {
			case *inputProc:
				at = max(at, 2+s.inputTemps(in))
			case *timeInputProc:
				at = max(at, 2+s.temps(in.after))
			}
			bt, bd := s.process(br.body, f)
			t, d = max(t, s.spill(f, at), bt), max(d, bd)
		}
		return t, d
	case *parProc:
		return s.par(v, f)
	case *callProc:
		info := v.sym.proc
		s.sizeProc(info)
		// Argument spills: register arguments evaluated into
		// temporaries first (see gen.go).
		nReg := min(len(v.args), 3)
		t := 0
		for i, a := range v.args {
			at := s.temps(a)
			if i < nReg {
				at += i // earlier register args already parked
			}
			t = max(t, at)
		}
		t = max(t, nReg)
		// Call frame of 4 words plus the callee's workspace.
		return s.spill(f, t), 4 + info.frame.above + info.frame.below
	}
	return 0, 0
}

// par sizes a PAR: components are stacked downward from the frame
// base, each consuming above+below words, the one whose code uses the
// enclosing frames' words most nearest the base, ties in textual
// order, so that those uses reach them in the fewest bytes.
func (s *sizer) par(v *parProc, f *frame) (temps, depth int) {
	info := v.info
	if v.rep != nil {
		comp := info.frames[0]
		s.sizeFrame(comp, v.procs[0])
		size := comp.above + comp.below
		info.stride = size
		info.deltas = []int{-comp.above}
		return s.spill(f, s.temps(v.rep.base)), size * info.count
	}
	for i, sub := range v.procs {
		s.sizeFrame(info.frames[i], sub)
	}
	// A component's delta stays 0 until it is placed: a placed one is at
	// least its two reserved words below the base.
	info.deltas = make([]int, len(v.procs))
	cursor := 0
	for range v.procs {
		next := -1
		for i, comp := range info.frames {
			if info.deltas[i] == 0 && (next < 0 || comp.outUses > info.frames[next].outUses) {
				next = i
			}
		}
		comp := info.frames[next]
		cursor -= comp.above
		info.deltas[next] = cursor
		cursor -= comp.below
	}
	return 0, -cursor
}

// inputTemps is what an input's channel and target subscripts spill.
func (s *sizer) inputTemps(in *inputProc) int {
	t := s.temps(in.chIdx)
	for _, tgt := range in.targets {
		t = max(t, s.temps(tgt.index))
	}
	return t
}

// temps returns the spill temporaries needed to evaluate e, or none
// when there is no e: "if there is insufficient room to evaluate an
// expression on the stack, then the compiler introduces the necessary
// temporary variables in the local workspace" (paper, 3.2.9).
func (s *sizer) temps(e expr) int {
	if e == nil {
		return 0
	}
	if cc := s.c.config; cc != nil && !cc.shaped && cc.spillTurns(e) {
		cc.shaped = true
	}
	_, t := exprShape(e, int(s.c.wordBytes))
	return t
}

// spillTurns reports whether exprShape's answer for e can turn on the
// value of a constant derived from i: a division by one folds
// unless it is zero, and a subtraction of one rides in adc unless it is
// the most negative word (operands).
func (cc *configCheck) spillTurns(e expr) bool {
	switch v := e.(type) {
	case *indexExpr:
		return cc.spillTurns(v.index)
	case *unaryExpr:
		return cc.spillTurns(v.arg)
	case *binaryExpr:
		switch v.op {
		case "-", "/", "\\":
			if cc.derives(v.right) {
				return true
			}
		}
		return cc.spillTurns(v.left) || cc.spillTurns(v.right)
	}
	return false
}

// exprShape returns (stack need, temps) for an expression, compiled as
// evalExpr compiles it for a machine of wordBytes bytes a word.
func exprShape(e expr, wordBytes int) (need, temps int) {
	if _, ok := foldConst(e); ok {
		return 1, 0
	}
	switch v := e.(type) {
	case *indexExpr:
		in, it := exprShape(v.index, wordBytes)
		// index, then base pointer, then load.
		return max(in, 2), it
	case *unaryExpr:
		an, at := exprShape(v.arg, wordBytes)
		if v.op == "-" {
			// ldc 0 ; arg ; sub
			return max(2, an+1), at
		}
		return max(an, 1), at
	case *binaryExpr:
		first, second, _ := operands(v, wordBytes)
		fn, ft := exprShape(first, wordBytes)
		if second == nil {
			// The constant rides in the instruction.
			return fn, ft
		}
		sn, st := exprShape(second, wordBytes)
		need = max(fn, sn+1)
		if need <= 3 {
			return need, max(ft, st)
		}
		// Spill: evaluate the second operand into a temporary first,
		// then the first, then reload.  The node still requires the
		// second operand's full stack depth (evaluated from empty), so
		// an enclosing expression may need to spill in turn.
		return max(sn, fn, 2), max(st, 1+ft)
	}
	return 1, 0
}
