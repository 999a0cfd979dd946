package occam

// Recursive-descent parser over the indentation-structured token
// stream, which it pulls from the lexer with one token of lookahead.

type parser struct {
	lx  *lexer
	tok token // the next token
	// placed is set inside a PLACED PAR, which cannot nest.
	placed bool
}

// parse parses a program; tokens is the number of tokens it read.
func parse(src string) (prog process, tokens int, err *Err) {
	p := &parser{lx: newLexer(src)}
	p.tok = p.lx.token()
	var e *Err
	var proc process
	func() {
		defer func() {
			// The recover that bounds parser.fail: its *Err is the
			// diagnostic.
			if r := recover(); r != nil {
				if pe, ok := r.(*Err); ok {
					e = pe
					return
				}
				// Not a diagnostic but a compiler bug: no recover in this
				// package bounds it, and it reaches the caller as it is.
				panic(r)
			}
		}()
		proc = p.parseProcess()
		p.expect(tokEOF, "")
	}()
	// A lexical error anywhere in the source is the one reported, even
	// past a syntax error: read on to the end to find one.
	for e != nil && p.lx.err == nil && p.tok.kind != tokEOF {
		p.tok = p.lx.token()
	}
	if p.lx.err != nil {
		return nil, 0, p.lx.err
	}
	return proc, p.lx.tokens, e
}

// ---- token plumbing -------------------------------------------------

func (p *parser) peek() token { return p.tok }
func (p *parser) next() token {
	t := p.tok
	p.tok = p.lx.token()
	return t
}

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.peek()
	if t.kind != kind {
		return false
	}
	return text == "" || t.text == text
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) token {
	t := p.peek()
	if !p.at(kind, text) {
		want := text
		if want == "" {
			want = (token{kind: kind}).String()
		}
		p.fail(t, "expected %s, found %s", want, t)
	}
	return p.next()
}

// fail aborts parsing with a diagnostic at t; parse's recover turns the
// panic back into the *Err it returns.
func (p *parser) fail(t token, format string, args ...interface{}) {
	panic(errf(t.line, t.col, format, args...))
}

func (p *parser) posOf(t token) pos { return pos{t.line, t.col} }

// ---- processes ------------------------------------------------------

// parseProcess parses one process, including any declarations that
// prefix it.
func (p *parser) parseProcess() process {
	t := p.peek()
	if t.kind == tokKeyword {
		switch t.text {
		case "VAR", "CHAN", "DEF", "PROC", "PLACE":
			return p.parseDecls()
		}
	}
	return p.parseSimpleOrConstruct()
}

// parseDecls gathers consecutive declarations and the process they
// scope over.
func (p *parser) parseDecls() process {
	start := p.peek()
	var decls []decl
loop:
	for p.peek().kind == tokKeyword {
		switch p.peek().text {
		case "VAR":
			decls = append(decls, p.parseVarChan(false))
		case "CHAN":
			decls = append(decls, p.parseVarChan(true))
		case "DEF":
			decls = append(decls, p.parseDef())
		case "PROC":
			decls = append(decls, p.parseProc())
		case "PLACE":
			decls = append(decls, p.parsePlace())
		default:
			break loop
		}
	}
	body := p.parseProcess()
	return &declProc{pos: p.posOf(start), decls: decls, body: body}
}

func (p *parser) parseVarChan(isChan bool) decl {
	kw := p.next()
	var items []declItem
	for {
		name := p.expect(tokIdent, "")
		item := declItem{pos: p.posOf(name), name: name.text}
		if p.accept(tokSymbol, "[") {
			item.size = p.parseExpr()
			p.expect(tokSymbol, "]")
		}
		items = append(items, item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	p.expect(tokSymbol, ":")
	p.expect(tokNewline, "")
	if isChan {
		return &chanDecl{pos: p.posOf(kw), items: items}
	}
	return &varDecl{pos: p.posOf(kw), items: items}
}

func (p *parser) parseDef() decl {
	kw := p.next()
	name := p.expect(tokIdent, "")
	p.expect(tokSymbol, "=")
	if p.at(tokString, "") {
		s := p.next().text
		p.expect(tokSymbol, ":")
		p.expect(tokNewline, "")
		return &defDecl{pos: p.posOf(kw), name: name.text, strVal: &s}
	}
	value := p.parseExpr()
	p.expect(tokSymbol, ":")
	p.expect(tokNewline, "")
	return &defDecl{pos: p.posOf(kw), name: name.text, value: value}
}

func (p *parser) parsePlace() decl {
	kw := p.next()
	name := p.expect(tokIdent, "")
	p.expect(tokKeyword, "AT")
	addr := p.parseExpr()
	p.expect(tokSymbol, ":")
	p.expect(tokNewline, "")
	return &placeDecl{pos: p.posOf(kw), name: name.text, addr: addr}
}

func (p *parser) parseProc() decl {
	kw := p.next()
	name := p.expect(tokIdent, "")
	var params []param
	p.expect(tokSymbol, "(")
	if !p.at(tokSymbol, ")") {
		kind := paramValue
		for {
			switch {
			case p.accept(tokKeyword, "VALUE"):
				kind = paramValue
			case p.accept(tokKeyword, "VAR"):
				kind = paramVar
			case p.accept(tokKeyword, "CHAN"):
				kind = paramChan
			}
			id := p.expect(tokIdent, "")
			pm := param{pos: p.posOf(id), kind: kind, name: id.text}
			if p.accept(tokSymbol, "[") {
				p.expect(tokSymbol, "]")
				pm.array = true
			}
			params = append(params, pm)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	p.expect(tokSymbol, ")")
	p.expect(tokSymbol, "=")
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	body := p.parseProcess()
	p.expect(tokDedent, "")
	p.expect(tokSymbol, ":")
	p.expect(tokNewline, "")
	return &procDecl{pos: p.posOf(kw), name: name.text, params: params, body: body}
}

// parseSimpleOrConstruct parses everything that is not a declaration.
func (p *parser) parseSimpleOrConstruct() process {
	t := p.peek()
	switch {
	case t.kind == tokKeyword && t.text == "SEQ":
		p.next()
		rep := p.maybeReplicator()
		procs := p.parseBody(rep != nil)
		return &seqProc{pos: p.posOf(t), rep: rep, procs: procs}
	case t.kind == tokKeyword && t.text == "PAR":
		p.next()
		rep := p.maybeReplicator()
		procs := p.parseBody(rep != nil)
		return &parProc{pos: p.posOf(t), rep: rep, procs: procs}
	case t.kind == tokKeyword && t.text == "PLACED":
		if p.placed {
			p.fail(t, "PLACED PAR cannot be nested: a configuration places processes at its outermost level")
		}
		p.next()
		p.expect(tokKeyword, "PAR")
		return p.parsePlacedPar(t)
	case t.kind == tokKeyword && t.text == "PRI":
		p.next()
		switch {
		case p.accept(tokKeyword, "PAR"):
			rep := p.maybeReplicator()
			procs := p.parseBody(rep != nil)
			return &parProc{pos: p.posOf(t), pri: true, rep: rep, procs: procs}
		case p.accept(tokKeyword, "ALT"):
			return p.parseAltBody(t, true)
		}
		p.fail(p.peek(), "PRI must be followed by PAR or ALT")
	case t.kind == tokKeyword && t.text == "ALT":
		p.next()
		if rep := p.maybeReplicator(); rep != nil {
			return p.parseReplicatedAlt(t, rep)
		}
		return p.parseAltBody(t, false)
	case t.kind == tokKeyword && t.text == "IF":
		p.next()
		return p.parseIfBody(t)
	case t.kind == tokKeyword && t.text == "WHILE":
		p.next()
		cond := p.parseExpr()
		p.expect(tokNewline, "")
		p.expect(tokIndent, "")
		body := p.parseProcess()
		p.expect(tokDedent, "")
		return &whileProc{pos: p.posOf(t), cond: cond, body: body}
	case t.kind == tokKeyword && t.text == "SKIP":
		p.next()
		p.expect(tokNewline, "")
		return &skipProc{pos: p.posOf(t)}
	case t.kind == tokKeyword && t.text == "STOP":
		p.next()
		p.expect(tokNewline, "")
		return &stopProc{pos: p.posOf(t)}
	case t.kind == tokKeyword && t.text == "TIME":
		p.next()
		proc := p.parseTimeInput(t)
		p.expect(tokNewline, "")
		return proc
	case t.kind == tokIdent:
		proc := p.parseSimple()
		p.expect(tokNewline, "")
		return proc
	}
	p.fail(t, "expected a process, found %s", t)
	return nil
}

// parsePlacedPar parses the configuration construct: each component is
// introduced by a PROCESSOR line.  A replicated PLACED PAR has one.
func (p *parser) parsePlacedPar(t token) process {
	pp := &placedPar{pos: p.posOf(t), tokens: p.lx.tokens}
	pp.rep = p.maybeReplicator()
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	p.placed = true
	for !p.at(tokDedent, "") {
		start := p.expect(tokKeyword, "PROCESSOR")
		if pp.rep != nil && len(pp.components) == 1 {
			p.fail(start, "a replicated PLACED PAR takes exactly one PROCESSOR")
		}
		procNum := p.parseExpr()
		p.expect(tokNewline, "")
		p.expect(tokIndent, "")
		before := p.lx.tokens
		body := p.parseProcess()
		p.expect(tokDedent, "")
		if pp.rep != nil {
			markConfigChoice(body)
		}
		pp.components = append(pp.components, placedComponent{
			pos: p.posOf(start), processor: procNum, body: body, tokens: p.lx.tokens - before,
		})
	}
	p.expect(tokDedent, "")
	p.placed = false
	return pp
}

// markConfigChoice marks the IF that opens a replicated PROCESSOR's
// body, after its declarations, as that processor's configuration
// choice.
func markConfigChoice(body process) {
	for {
		dp, ok := body.(*declProc)
		if !ok {
			break
		}
		body = dp.body
	}
	if v, ok := body.(*ifProc); ok {
		v.config = true
	}
}

// parseBody parses NEWLINE INDENT components DEDENT.  A replicated
// construct has exactly one component.
func (p *parser) parseBody(replicated bool) []process {
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	var procs []process
	for !p.at(tokDedent, "") {
		procs = append(procs, p.parseProcess())
		if replicated {
			break
		}
	}
	p.expect(tokDedent, "")
	return procs
}

func (p *parser) maybeReplicator() *replicator {
	if !p.at(tokIdent, "") {
		return nil
	}
	name := p.next()
	p.expect(tokSymbol, "=")
	p.expect(tokSymbol, "[")
	base := p.parseExpr()
	p.expect(tokKeyword, "FOR")
	count := p.parseExpr()
	p.expect(tokSymbol, "]")
	return &replicator{pos: p.posOf(name), name: name.text, base: base, count: count}
}

// parseReplicatedAlt parses "ALT i = [base FOR count]" with a single
// guarded branch.
func (p *parser) parseReplicatedAlt(t token, rep *replicator) process {
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	br := p.parseAltBranch()
	p.expect(tokDedent, "")
	return &altProc{pos: p.posOf(t), rep: rep, branches: []altBranch{br}}
}

func (p *parser) parseAltBody(t token, pri bool) process {
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	var branches []altBranch
	for !p.at(tokDedent, "") {
		branches = append(branches, p.parseAltBranch())
	}
	p.expect(tokDedent, "")
	return &altProc{pos: p.posOf(t), pri: pri, branches: branches}
}

// parseAltBranch parses one guard line and its indented body.
func (p *parser) parseAltBranch() altBranch {
	start := p.peek()
	br := altBranch{pos: p.posOf(start)}

	// TIME ? AFTER e  or  SKIP  or  [expr &] input.
	if p.accept(tokKeyword, "TIME") {
		br.input = p.parseTimeInput(start)
	} else if p.accept(tokKeyword, "SKIP") {
		br.input = &skipProc{pos: p.posOf(start)}
	} else {
		e := p.parseExpr()
		if p.accept(tokSymbol, "&") {
			br.cond = e
			switch {
			case p.accept(tokKeyword, "TIME"):
				br.input = p.parseTimeInput(start)
			case p.accept(tokKeyword, "SKIP"):
				br.input = &skipProc{pos: p.posOf(start)}
			default:
				br.input = p.parseInputGuard()
			}
		} else {
			// The expression must have been the channel of an input.
			br.input = p.inputFromExpr(e)
		}
	}
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	br.body = p.parseProcess()
	p.expect(tokDedent, "")
	return br
}

// parseInputGuard parses "chan ? targets" from the start.
func (p *parser) parseInputGuard() process {
	e := p.parseExpr()
	return p.inputFromExpr(e)
}

// inputFromExpr converts an already-parsed channel expression followed
// by "? targets" into an input process.
func (p *parser) inputFromExpr(e expr) process {
	ch, chIdx, ok := channelOf(e)
	if !ok {
		p.fail(p.peek(), "expected a channel before ?")
	}
	p.expect(tokSymbol, "?")
	in := &inputProc{pos: ch.pos, ch: ch, chIdx: chIdx}
	in.targets = p.parseInputTargets()
	return in
}

func channelOf(e expr) (*nameExpr, expr, bool) {
	switch v := e.(type) {
	case *nameExpr:
		return v, nil, true
	case *indexExpr:
		return v.base, v.index, true
	}
	return nil, nil, false
}

func (p *parser) parseInputTargets() []inputTarget {
	var targets []inputTarget
	for {
		if p.accept(tokKeyword, "ANY") {
			targets = append(targets, inputTarget{})
		} else {
			name := p.expect(tokIdent, "")
			tgt := inputTarget{name: &nameExpr{pos: p.posOf(name), name: name.text}}
			if p.accept(tokSymbol, "[") {
				tgt.index = p.parseExpr()
				p.expect(tokSymbol, "]")
			}
			targets = append(targets, tgt)
		}
		if !p.accept(tokSymbol, ";") {
			break
		}
	}
	return targets
}

// parseTimeInput parses "? v" or "? AFTER e" after the TIME keyword.
func (p *parser) parseTimeInput(t token) process {
	p.expect(tokSymbol, "?")
	if p.accept(tokKeyword, "AFTER") {
		return &timeInputProc{pos: p.posOf(t), after: p.parseExpr()}
	}
	name := p.expect(tokIdent, "")
	ti := &timeInputProc{pos: p.posOf(t), target: &nameExpr{pos: p.posOf(name), name: name.text}}
	if p.accept(tokSymbol, "[") {
		ti.index = p.parseExpr()
		p.expect(tokSymbol, "]")
	}
	return ti
}

func (p *parser) parseIfBody(t token) process {
	p.expect(tokNewline, "")
	p.expect(tokIndent, "")
	var branches []ifBranch
	for !p.at(tokDedent, "") {
		before := p.lx.tokens
		cond := p.parseExpr()
		p.expect(tokNewline, "")
		p.expect(tokIndent, "")
		body := p.parseProcess()
		p.expect(tokDedent, "")
		branches = append(branches, ifBranch{cond: cond, body: body, tokens: p.lx.tokens - before})
	}
	p.expect(tokDedent, "")
	return &ifProc{pos: p.posOf(t), branches: branches}
}

// parseSimple parses assignment, input, output or a PROC call, all of
// which begin with an identifier.
func (p *parser) parseSimple() process {
	name := p.next()
	base := &nameExpr{pos: p.posOf(name), name: name.text}

	if p.accept(tokSymbol, "(") {
		call := &callProc{pos: p.posOf(name), name: name.text}
		if !p.at(tokSymbol, ")") {
			for {
				call.args = append(call.args, p.parseExpr())
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
		}
		p.expect(tokSymbol, ")")
		return call
	}

	var index expr
	byteSel := false
	if p.accept(tokSymbol, "[") {
		byteSel = p.accept(tokKeyword, "BYTE")
		index = p.parseExpr()
		p.expect(tokSymbol, "]")
	}

	t := p.peek()
	switch {
	case p.accept(tokSymbol, ":="):
		return &assignProc{pos: p.posOf(name), target: base, index: index, byteSel: byteSel, value: p.parseExpr()}
	case p.accept(tokSymbol, "!"):
		if byteSel {
			p.fail(t, "BYTE subscription cannot select a channel")
		}
		out := &outputProc{pos: p.posOf(name), ch: base, chIdx: index}
		for {
			out.values = append(out.values, p.parseExpr())
			if !p.accept(tokSymbol, ";") {
				break
			}
		}
		return out
	case p.accept(tokSymbol, "?"):
		if byteSel {
			p.fail(t, "BYTE subscription cannot select a channel")
		}
		in := &inputProc{pos: p.posOf(name), ch: base, chIdx: index}
		in.targets = p.parseInputTargets()
		return in
	}
	p.fail(t, "expected :=, ! or ? after %q", name.text)
	return nil
}

// ---- expressions ----------------------------------------------------

// isBinaryOp reports whether a symbol or keyword is a binary operator.
func isBinaryOp(text string) bool {
	switch text {
	case "+", "-", "*", "/", "\\",
		"/\\", "\\/", "><", "<<", ">>",
		"=", "<>", "<", ">", "<=", ">=",
		"AND", "OR", "AFTER":
		return true
	}
	return false
}

// parseExpr parses an operand sequence.  Occam operators have no
// relative precedence: mixing different operators requires
// parentheses, which the parser enforces.
func (p *parser) parseExpr() expr {
	left := p.parseOperand()
	firstOp := ""
	for {
		t := p.peek()
		op := ""
		if (t.kind == tokSymbol || t.kind == tokKeyword) && isBinaryOp(t.text) {
			op = t.text
		}
		if op == "" {
			return left
		}
		if firstOp == "" {
			firstOp = op
		} else if op != firstOp {
			p.fail(t, "occam operators have no precedence: parenthesize when mixing %q and %q", firstOp, op)
		}
		p.next()
		right := p.parseOperand()
		left = &binaryExpr{pos: p.posOf(t), op: op, left: left, right: right}
	}
}

func (p *parser) parseOperand() expr {
	t := p.peek()
	switch {
	case t.kind == tokNumber:
		p.next()
		return &numberExpr{pos: p.posOf(t), val: t.val}
	case t.kind == tokChar:
		p.next()
		return &numberExpr{pos: p.posOf(t), val: t.val}
	case t.kind == tokKeyword && t.text == "TRUE":
		p.next()
		return &numberExpr{pos: p.posOf(t), val: 1}
	case t.kind == tokKeyword && t.text == "FALSE":
		p.next()
		return &numberExpr{pos: p.posOf(t), val: 0}
	case t.kind == tokKeyword && t.text == "NOT":
		p.next()
		return &unaryExpr{pos: p.posOf(t), op: "NOT", arg: p.parseOperand()}
	case t.kind == tokSymbol && t.text == "-":
		p.next()
		return &unaryExpr{pos: p.posOf(t), op: "-", arg: p.parseOperand()}
	case t.kind == tokSymbol && t.text == "(":
		p.next()
		e := p.parseExpr()
		p.expect(tokSymbol, ")")
		return e
	case t.kind == tokIdent:
		p.next()
		base := &nameExpr{pos: p.posOf(t), name: t.text}
		if p.accept(tokSymbol, "[") {
			byteSel := p.accept(tokKeyword, "BYTE")
			idx := p.parseExpr()
			p.expect(tokSymbol, "]")
			return &indexExpr{pos: p.posOf(t), base: base, index: idx, byteSel: byteSel}
		}
		return base
	}
	p.fail(t, "expected an expression, found %s", t)
	return nil
}
