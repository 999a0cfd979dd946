package occam

import "strings"

// lexer scans occam source into tokens, one at a time as the parser
// asks for them.  Occam structures programs by indentation: each level
// is two spaces, and the lexer emits indent/dedent tokens at line
// starts, Python-style.
type lexer struct {
	src  string
	next int // offset in src of the first line not yet read
	line int // number of the line being scanned
	// depth is the indentation level of the last line read; pending
	// is the indent (positive) or dedent (negative) tokens owed before
	// its body.
	depth   int
	pending int
	// body is the line being scanned, from its first non-space byte;
	// i is the scan position within it and base the column of body[0]
	// less one.
	body   string
	i      int
	base   int
	inLine bool
	err    *Err
	// tokens counts the tokens returned, a measure of the program's
	// size the code generator sizes its buffers by.
	tokens int
}

func newLexer(src string) *lexer { return &lexer{src: src} }

// token returns the next token.  After the end of the source, or after
// an error (which l.err then holds), it returns tokEOF.
func (l *lexer) token() token {
	l.tokens++
	for {
		switch {
		case l.err != nil:
			return token{kind: tokEOF, line: l.line + 1, col: 1}
		case l.pending > 0:
			l.pending--
			return token{kind: tokIndent, line: l.line, col: 1}
		case l.pending < 0:
			l.pending++
			return token{kind: tokDedent, line: l.line, col: 1}
		case l.inLine:
			if t, ok := l.scan(); ok {
				return t
			}
			if l.err == nil {
				l.inLine = false
				return token{kind: tokNewline, line: l.line, col: l.base + len(l.body) + 1}
			}
		case l.next <= len(l.src):
			l.readLine()
		case l.depth > 0:
			l.depth--
			return token{kind: tokDedent, line: l.line + 1, col: 1}
		default:
			return token{kind: tokEOF, line: l.line + 1, col: 1}
		}
	}
}

// readLine reads the next source line: a blank or comment-only one is
// skipped; any other owes the tokens that move the indentation to its
// level, then its body's.
func (l *lexer) readLine() {
	raw := l.src[l.next:]
	if j := strings.IndexByte(raw, '\n'); j >= 0 {
		raw = raw[:j]
	}
	l.next += len(raw) + 1
	l.line++
	// Strip comments: "--" to end of line, outside quotes.
	trimmed := strings.TrimRight(stripOccamComment(raw), " \t")
	if strings.TrimSpace(trimmed) == "" {
		return // blank or comment-only line
	}
	indent := 0
	for indent < len(trimmed) && trimmed[indent] == ' ' {
		indent++
	}
	if trimmed[indent] == '\t' {
		l.fail(indent+1, "tabs are not allowed in occam indentation")
		return
	}
	if indent%2 != 0 {
		l.fail(indent+1, "indentation must be a multiple of two spaces")
		return
	}
	level := indent / 2
	l.pending = level - l.depth
	l.depth = level
	l.body, l.i, l.base = trimmed[indent:], 0, indent
	l.inLine = true
}

func stripOccamComment(s string) string {
	inChar := false
	inStr := false
	for i := 0; i+1 < len(s); i++ {
		switch {
		case inChar:
			if s[i] == '\'' {
				inChar = false
			}
		case inStr:
			if s[i] == '"' {
				inStr = false
			}
		case s[i] == '\'':
			inChar = true
		case s[i] == '"':
			inStr = true
		case s[i] == '-' && s[i+1] == '-':
			return s[:i]
		}
	}
	return s
}

func (l *lexer) fail(col int, msg string) {
	if l.err == nil {
		l.err = errf(l.line, col, "%s", msg)
	}
}

// scan returns the next token of the line body, or false at its end
// or at an error.
func (l *lexer) scan() (token, bool) {
	s, i := l.body, l.i
	for i < len(s) && s[i] == ' ' {
		i++
	}
	if i == len(s) {
		l.i = i
		return token{}, false
	}
	start := i
	col := l.base + start + 1
	t := token{line: l.line, col: col}
	c := s[i]
	switch {
	case isLetter(c):
		for i < len(s) && (isLetter(s[i]) || isDigit(s[i]) || s[i] == '.') {
			i++
		}
		t.kind, t.text = tokIdent, s[start:i]
		if isKeyword(t.text) {
			t.kind = tokKeyword
		}
	case isDigit(c):
		v := int64(0)
		for i < len(s) && isDigit(s[i]) {
			v = v*10 + int64(s[i]-'0')
			i++
		}
		t.kind, t.text, t.val = tokNumber, s[start:i], v
	case c == '#':
		i++
		v := int64(0)
		for i < len(s) && isHex(s[i]) {
			v = v*16 + int64(hexVal(s[i]))
			i++
		}
		if i == start+1 {
			l.fail(l.base+i+1, "malformed hex literal")
			return token{}, false
		}
		t.kind, t.text, t.val = tokNumber, s[start:i], v
	case c == '\'':
		if i+2 < len(s) && s[i+2] == '\'' {
			t.kind, t.val = tokChar, int64(s[i+1])
			i += 3
		} else if i+3 < len(s) && s[i+1] == '*' && s[i+3] == '\'' {
			// occam escapes: *c carriage return, *n newline, *t tab,
			// *s space, *' quote, ** asterisk.
			v, ok := occamEscape(s[i+2])
			if !ok {
				l.fail(col, "unknown character escape")
				return token{}, false
			}
			t.kind, t.val = tokChar, int64(v)
			i += 4
		} else {
			l.fail(col, "malformed character literal")
			return token{}, false
		}
	case c == '"':
		i++
		var sb strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '*' && i+1 < len(s) {
				v, ok := occamEscape(s[i+1])
				if !ok {
					l.fail(l.base+i+1, "unknown string escape")
					return token{}, false
				}
				sb.WriteByte(v)
				i += 2
				continue
			}
			sb.WriteByte(s[i])
			i++
		}
		if i >= len(s) {
			l.fail(col, "unterminated string")
			return token{}, false
		}
		i++
		t.kind, t.text = tokString, sb.String()
	default:
		sym := symbolAt(s[i:])
		if sym == "" {
			l.fail(col, "unexpected character "+string(c))
			return token{}, false
		}
		t.kind, t.text = tokSymbol, sym
		i += len(sym)
	}
	l.i = i
	return t, true
}

// symbolAt returns the symbol s starts with, longest first, or "".
func symbolAt(s string) string {
	if len(s) >= 2 {
		switch s[:2] {
		case ":=", "<=", ">=", "<>", "<<", ">>", "/\\", "\\/", "><":
			return s[:2]
		}
	}
	switch s[0] {
	case '(', ')', '[', ']', ',', ':', '=', '<', '>', '+', '-', '*', '/', '\\', '!', '?', '&', ';':
		return s[:1]
	}
	return ""
}

func occamEscape(c byte) (byte, bool) {
	switch c {
	case 'c', 'C':
		return '\r', true
	case 'n', 'N':
		return '\n', true
	case 't', 'T':
		return '\t', true
	case 's', 'S':
		return ' ', true
	case '\'':
		return '\'', true
	case '"':
		return '"', true
	case '*':
		return '*', true
	}
	return 0, false
}

func isLetter(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}
func isDigit(c byte) bool { return c >= '0' && c <= '9' }
func isHex(c byte) bool {
	return isDigit(c) || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}
func hexVal(c byte) int {
	switch {
	case isDigit(c):
		return int(c - '0')
	case c >= 'a':
		return int(c-'a') + 10
	default:
		return int(c-'A') + 10
	}
}
