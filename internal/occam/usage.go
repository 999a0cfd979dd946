package occam

// Usage checking — the static discipline behind the paper's design
// correctness story (section 2.2.1): occam's parallel components must
// be disjoint.  A variable assigned in one component of a PAR may not
// be read or assigned in another, and each channel may be used for
// input by only one component and for output by only one component.
//
// PROC bodies are summarised per parameter, so channels passed to
// procedures carry their direction to the call site.  Replicated PAR
// components share one body and commonly index arrays by the
// replicator; element-level disjointness is beyond this checker, so
// replicated PAR is not usage-checked (the INMOS compilers applied
// more elaborate subscript rules there).

// entity is the unit of disjointness: a scalar, a whole array (for
// subscripts the checker cannot fold), or one constant-indexed array
// element.
type entity struct {
	sym     *symbol
	indexed bool
	idx     int64
}

// overlaps reports whether two entities can denote the same storage or
// channel.
func (a entity) overlaps(b entity) bool {
	if a.sym != b.sym {
		return false
	}
	if a.indexed && b.indexed {
		return a.idx == b.idx
	}
	return true // a whole-array use overlaps every element
}

// entityBefore is the order effect sets keep: by the declaring
// symbol's position and then name, then the whole array before its
// elements, then by element index.  Distinct symbols never share a
// declaration position and name, so no two distinct entities tie.
func entityBefore(a, b entity) bool {
	if a.sym != b.sym {
		if a.sym.pos.line != b.sym.pos.line {
			return a.sym.pos.line < b.sym.pos.line
		}
		if a.sym.pos.col != b.sym.pos.col {
			return a.sym.pos.col < b.sym.pos.col
		}
		return a.sym.name < b.sym.name
	}
	if a.indexed != b.indexed {
		return !a.indexed
	}
	return a.idx < b.idx
}

// entitySet is a set of entities, kept in entityBefore order.  The sets
// of a process are small, so a sorted slice beats a map both to fill
// and to scan in order.
type entitySet []entity

// add puts an entity in the set.
func (s *entitySet) add(e entity) {
	set := *s
	lo, hi := 0, len(set)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if entityBefore(set[mid], e) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(set) && set[lo] == e {
		return
	}
	set = append(set, entity{})
	copy(set[lo+1:], set[lo:])
	set[lo] = e
	*s = set
}

// addAll puts every entity of o in the set.
func (s *entitySet) addAll(o entitySet) {
	for _, e := range o {
		s.add(e)
	}
}

// effects records what a process does to each entity.
type effects struct {
	read, written, input, output entitySet
}

func (e *effects) merge(o *effects) {
	e.read.addAll(o.read)
	e.written.addAll(o.written)
	e.input.addAll(o.input)
	e.output.addAll(o.output)
}

// entityOf resolves a symbol with an optional subscript expression to
// an entity: constant subscripts select single elements.
func (c *checker) entityOf(sym *symbol, idx expr) entity {
	if idx == nil {
		return entity{sym: sym}
	}
	c.shape(idx)
	if v, ok := foldConst(idx); ok {
		return entity{sym: sym, indexed: true, idx: v}
	}
	return entity{sym: sym}
}

// paramEffects summarises a PROC's use of one parameter.
type paramEffects struct {
	read, written, input, output bool
}

// checkUsage walks the program, validating every PAR and computing
// PROC summaries along the way.
func (c *checker) checkUsage(prog process) *Err {
	return c.usage(prog, &effects{})
}

// usage adds the effects of a process to e, checking nested PARs.  A
// process's effects are those of its parts, so only a PAR's components
// and a PROC's body collect theirs apart.
func (c *checker) usage(p process, e *effects) *Err {
	switch v := p.(type) {
	case *skipProc, *stopProc:
	case *declProc:
		for _, d := range v.decls {
			if pd, ok := d.(*procDecl); ok {
				if err := c.summariseProc(pd); err != nil {
					return err
				}
			}
		}
		return c.usage(v.body, e)
	case *assignProc:
		c.exprReads(e, v.value)
		if v.index != nil {
			c.exprReads(e, v.index)
		}
		e.written.add(c.entityOf(v.target.sym, v.index))
	case *outputProc:
		e.output.add(c.entityOf(v.ch.sym, v.chIdx))
		if v.chIdx != nil {
			c.exprReads(e, v.chIdx)
		}
		for _, val := range v.values {
			c.exprReads(e, val)
		}
	case *inputProc:
		e.input.add(c.entityOf(v.ch.sym, v.chIdx))
		if v.chIdx != nil {
			c.exprReads(e, v.chIdx)
		}
		for _, tgt := range v.targets {
			if tgt.name != nil {
				e.written.add(c.entityOf(tgt.name.sym, tgt.index))
				if tgt.index != nil {
					c.exprReads(e, tgt.index)
				}
			}
		}
	case *timeInputProc:
		if v.after != nil {
			c.exprReads(e, v.after)
		} else {
			e.written.add(c.entityOf(v.target.sym, v.index))
			if v.index != nil {
				c.exprReads(e, v.index)
			}
		}
	case *seqProc:
		if v.rep != nil {
			c.exprReads(e, v.rep.base)
			c.exprReads(e, v.rep.count)
		}
		for _, sub := range v.procs {
			if err := c.usage(sub, e); err != nil {
				return err
			}
		}
	case *whileProc:
		c.exprReads(e, v.cond)
		return c.usage(v.body, e)
	case *ifProc:
		if v.config {
			return c.usage(v.branches[v.chosen].body, e)
		}
		for _, br := range v.branches {
			c.exprReads(e, br.cond)
			if err := c.usage(br.body, e); err != nil {
				return err
			}
		}
	case *altProc:
		for i := range v.branches {
			br := &v.branches[i]
			if br.cond != nil {
				c.exprReads(e, br.cond)
			}
			if err := c.usage(br.input, e); err != nil {
				return err
			}
			if err := c.usage(br.body, e); err != nil {
				return err
			}
		}
		if v.rep != nil {
			c.exprReads(e, v.rep.base)
			c.exprReads(e, v.rep.count)
		}
	case *parProc:
		if v.rep != nil {
			// Replicated PAR: collect effects but do not pairwise
			// check (see the package comment).
			c.exprReads(e, v.rep.base)
			return c.usage(v.procs[0], e)
		}
		comps := make([]effects, len(v.procs))
		for i, sub := range v.procs {
			if err := c.usage(sub, &comps[i]); err != nil {
				return err
			}
		}
		if err := checkDisjoint(v.pos, comps); err != nil {
			return err
		}
		for i := range comps {
			e.merge(&comps[i])
		}
	case *callProc:
		summary := v.sym.proc.effects
		for i, arg := range v.args {
			pe := paramEffects{read: true}
			if i < len(summary) {
				pe = summary[i]
			}
			c.argEffects(e, arg, v.sym.proc.params[i], pe)
		}
	}
	return nil
}

// exprReads marks every variable an expression reads.
func (c *checker) exprReads(e *effects, ex expr) {
	switch v := ex.(type) {
	case *nameExpr:
		if v.sym != nil {
			switch v.sym.kind {
			case symVar, symRep, symParam:
				e.read.add(entity{sym: v.sym})
			}
		}
	case *indexExpr:
		if v.base.sym != nil {
			switch v.base.sym.kind {
			case symVar, symRep, symParam:
				e.read.add(c.entityOf(v.base.sym, v.index))
			}
		}
		c.exprReads(e, v.index)
	case *unaryExpr:
		c.exprReads(e, v.arg)
	case *binaryExpr:
		c.exprReads(e, v.left)
		c.exprReads(e, v.right)
	}
}

// argEffects maps a PROC's per-parameter summary onto the actual
// argument's symbol.
func (c *checker) argEffects(e *effects, arg expr, formal *symbol, pe paramEffects) {
	var ent entity
	switch v := arg.(type) {
	case *nameExpr:
		if v.sym == nil {
			return
		}
		ent = entity{sym: v.sym}
	case *indexExpr:
		if v.base.sym == nil {
			return
		}
		ent = c.entityOf(v.base.sym, v.index)
		c.exprReads(e, v.index)
	default:
		c.exprReads(e, arg)
		return
	}
	switch formal.paramKind {
	case paramValue:
		c.exprReads(e, arg)
	case paramVar:
		if pe.read {
			e.read.add(ent)
		}
		if pe.written {
			e.written.add(ent)
		}
	case paramChan:
		if pe.input {
			e.input.add(ent)
		}
		if pe.output {
			e.output.add(ent)
		}
	}
}

// summariseProc computes (once) the per-parameter effects of a PROC.
func (c *checker) summariseProc(pd *procDecl) *Err {
	info := pd.sym.proc
	if info.summarised {
		return nil
	}
	var body effects
	if err := c.usage(pd.body, &body); err != nil {
		return err
	}
	summary := make([]paramEffects, len(info.params))
	for i, psym := range info.params {
		summary[i] = paramEffects{
			read:    body.read.touches(psym),
			written: body.written.touches(psym),
			input:   body.input.touches(psym),
			output:  body.output.touches(psym),
		}
	}
	info.effects, info.summarised = summary, true
	return nil
}

// touches reports whether any entity of the given symbol is in the set.
func (s entitySet) touches(sym *symbol) bool {
	for _, ent := range s {
		if ent.sym == sym {
			return true
		}
	}
	return false
}

// anyOverlap finds an entity in a that overlaps one in b.  Both sets
// are scanned in order, so that when several entities conflict, the
// one named in the compile error is the first by declaration.
func anyOverlap(a, b entitySet) (entity, bool) {
	for _, ea := range a {
		for _, eb := range b {
			if ea.overlaps(eb) {
				return ea, true
			}
		}
	}
	return entity{}, false
}

// checkDisjoint enforces the PAR rules across component effects.
func checkDisjoint(at pos, comps []effects) *Err {
	for i := 0; i < len(comps); i++ {
		for j := i + 1; j < len(comps); j++ {
			a, b := &comps[i], &comps[j]
			if ent, bad := anyOverlap(a.written, b.written); bad {
				return usageErr(at, ent, "assigned in one component of a PAR and used in another")
			}
			if ent, bad := anyOverlap(a.written, b.read); bad {
				return usageErr(at, ent, "assigned in one component of a PAR and used in another")
			}
			if ent, bad := anyOverlap(b.written, a.read); bad {
				return usageErr(at, ent, "assigned in one component of a PAR and used in another")
			}
			if ent, bad := anyOverlap(a.input, b.input); bad {
				return usageErr(at, ent, "used for input by two components of a PAR")
			}
			if ent, bad := anyOverlap(a.output, b.output); bad {
				return usageErr(at, ent, "used for output by two components of a PAR")
			}
		}
	}
	return nil
}

func usageErr(at pos, ent entity, what string) *Err {
	name := ent.sym.name
	if ent.indexed {
		name = name + "[...]"
	}
	return errf(at.line, at.col, "%q is %s", name, what)
}
