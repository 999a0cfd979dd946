package occam

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

// sizeProgram sizes the root frame and every PROC frame.
func (c *checker) sizeProgram(prog process, root *frame) {
	s := &sizer{c: c}
	// PROCs were recorded in declaration order, so callees precede
	// callers; size them first.
	for _, info := range c.procs {
		s.sizeProc(info)
	}
	s.sizeFrame(root, prog)
}

func (s *sizer) sizeProc(info *procInfo) {
	if info.frame.sized {
		return
	}
	s.sizeFrame(info.frame, info.decl.body)
}

// sizeFrame computes above/below for a frame whose body is the given
// process.
func (s *sizer) sizeFrame(f *frame, body process) {
	temps, depth := s.process(body, f)
	if temps > f.maxTemp {
		f.maxTemp = temps
	}
	f.above = f.nLocal + f.maxTemp + f.extraParams
	f.below = schedulerSlots + depth
	f.sized = true
}

// process returns (spill temporaries, words needed below the frame
// base) for one statement.
func (s *sizer) process(p process, f *frame) (temps, depth int) {
	switch v := p.(type) {
	case *skipProc, *stopProc:
		return 0, 0
	case *declProc:
		return s.process(v.body, f)
	case *assignProc:
		t := exprTemps(v.value)
		if v.index != nil {
			// Value occupies one stack slot while the index and base
			// are computed.
			t = max(t, 1+exprTemps(v.index))
		}
		return t, 0
	case *outputProc:
		t := exprTempsChan(v.chIdx)
		for _, e := range v.values {
			t = max(t, exprTemps(e))
		}
		return t, 0
	case *inputProc:
		t := exprTempsChan(v.chIdx)
		for _, tgt := range v.targets {
			if tgt.index != nil {
				t = max(t, exprTemps(tgt.index))
			}
		}
		return t, 0
	case *timeInputProc:
		if v.after != nil {
			return exprTemps(v.after), 0
		}
		if v.index != nil {
			return exprTemps(v.index), 0
		}
		return 0, 0
	case *seqProc:
		t, d := 0, 0
		if v.rep != nil {
			t = max(exprTemps(v.rep.base), exprTemps(v.rep.count))
		}
		for _, sub := range v.procs {
			st, sd := s.process(sub, f)
			t, d = max(t, st), max(d, sd)
		}
		return t, d
	case *whileProc:
		t, d := s.process(v.body, f)
		return max(t, exprTemps(v.cond)), d
	case *ifProc:
		if v.config {
			return s.process(v.branches[v.chosen].body, f)
		}
		t, d := 0, 0
		for _, br := range v.branches {
			bt, bd := s.process(br.body, f)
			t = max(t, bt, exprTemps(br.cond))
			d = max(d, bd)
		}
		return t, d
	case *altProc:
		// Guard operands may be parked in temporaries while the
		// selection offset and guard boolean occupy the stack (see
		// planOperand in gen.go): reserve two slots per alternative
		// plus whatever the operand expressions themselves spill.  A
		// replicated ALT additionally parks the loop-invariant base.
		t, d := 0, 0
		if v.rep != nil {
			t = 1 + max(exprTemps(v.rep.base), exprTemps(v.rep.count))
			bt, bd := s.process(v.branches[0].body, f)
			in := v.branches[0].input.(*inputProc)
			it, _ := s.process(in, f)
			t = max(t, 3+it)
			if v.branches[0].cond != nil {
				t = max(t, 3+exprTemps(v.branches[0].cond))
			}
			return max(t, bt), max(d, bd)
		}
		for _, br := range v.branches {
			if br.cond != nil {
				t = max(t, 2+exprTemps(br.cond))
			}
			if in, ok := br.input.(*inputProc); ok {
				it, _ := s.process(in, f)
				t = max(t, 2+it)
			}
			if ti, ok := br.input.(*timeInputProc); ok && ti.after != nil {
				t = max(t, 2+exprTemps(ti.after))
			}
			bt, bd := s.process(br.body, f)
			t, d = max(t, bt), max(d, bd)
		}
		return t, d
	case *parProc:
		return s.par(v, f)
	case *callProc:
		info := v.sym.proc
		s.sizeProc(info)
		// Argument spills: register arguments evaluated into
		// temporaries first (see gen.go).
		nReg := len(v.args)
		if nReg > 3 {
			nReg = 3
		}
		t := 0
		for i, a := range v.args {
			at := exprTemps(a)
			if i < nReg {
				at += i // earlier register args already parked
			}
			t = max(t, at)
		}
		t = max(t, nReg)
		// Call frame of 4 words plus the callee's workspace.
		return t, 4 + info.frame.above + info.frame.below
	}
	return 0, 0
}

// par sizes a PAR: components are stacked downward from the frame
// base; each consumes above+below words.
func (s *sizer) par(v *parProc, f *frame) (temps, depth int) {
	info := v.info
	t := 0
	if v.rep != nil {
		comp := info.frames[0]
		ct, cd := s.process(v.procs[0], comp)
		if ct > comp.maxTemp {
			comp.maxTemp = ct
		}
		comp.above = comp.nLocal + comp.maxTemp
		comp.below = schedulerSlots + cd
		comp.sized = true
		size := comp.above + comp.below
		info.stride = size
		info.deltas = []int{-comp.above}
		t = max(exprTemps(v.rep.base), 0)
		return t, size * info.count
	}
	cursor := 0
	for i, sub := range v.procs {
		comp := info.frames[i]
		ct, cd := s.process(sub, comp)
		if ct > comp.maxTemp {
			comp.maxTemp = ct
		}
		comp.above = comp.nLocal + comp.maxTemp
		comp.below = schedulerSlots + cd
		comp.sized = true
		cursor -= comp.above
		info.deltas = append(info.deltas, cursor)
		cursor -= comp.below
	}
	return t, -cursor
}

// exprTemps returns the spill temporaries needed to evaluate e on the
// three-register stack: "if there is insufficient room to evaluate an
// expression on the stack, then the compiler introduces the necessary
// temporary variables in the local workspace" (paper, 3.2.9).
func exprTemps(e expr) int {
	_, t := exprShape(e)
	return t
}

func exprTempsChan(chIdx expr) int {
	if chIdx == nil {
		return 0
	}
	return exprTemps(chIdx)
}

// exprShape returns (stack need, temps) for an expression.
func exprShape(e expr) (need, temps int) {
	switch v := e.(type) {
	case *numberExpr, *nameExpr:
		return 1, 0
	case *indexExpr:
		in, it := exprShape(v.index)
		// index, then base pointer, then load.
		return max(in, 2), it
	case *unaryExpr:
		an, at := exprShape(v.arg)
		if v.op == "-" {
			// ldc 0 ; arg ; sub
			return max(2, an+1), at
		}
		return max(an, 1), at
	case *binaryExpr:
		ln, lt := exprShape(v.left)
		rn, rt := exprShape(v.right)
		need = max(ln, rn+1)
		if need <= 3 {
			return need, max(lt, rt)
		}
		// Spill: evaluate the right operand into a temporary first,
		// then the left, then reload.  The node still requires the
		// right operand's full stack depth (evaluated from empty), so
		// an enclosing expression may need to spill in turn.
		temps = max(rt, 1+lt)
		return max(rn, ln, 2), temps
	}
	return 1, 0
}
