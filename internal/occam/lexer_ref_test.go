package occam

import "strings"

// The lexer as it was when it scanned the whole source before parsing
// began, kept verbatim but for its identifiers as the reference
// FuzzLexer holds the pulling lexer to, with the keyword table it read.

// keywords of the subset.
var keywords = map[string]bool{
	"SEQ": true, "PAR": true, "ALT": true, "IF": true, "WHILE": true,
	"PRI": true, "SKIP": true, "STOP": true, "VAR": true, "CHAN": true,
	"DEF": true, "PROC": true, "VALUE": true, "TRUE": true, "FALSE": true,
	"NOT": true, "AND": true, "OR": true, "AFTER": true, "FOR": true,
	"TIME": true, "PLACE": true, "AT": true, "ANY": true,
	"PLACED": true, "PROCESSOR": true, "BYTE": true,
}

// refLexer scans occam source into tokens.  Occam structures programs by
// indentation: each level is two spaces, and the refLexer emits
// indent/dedent tokens at line starts, Python-style.
type refLexer struct {
	src    string
	pos    int
	line   int
	col    int
	tokens []token
	err    *Err
}

// refLex scans the whole source.  It returns the token stream or the
// first error.
func refLex(src string) ([]token, *Err) {
	l := &refLexer{src: src, line: 1}
	l.run()
	return l.tokens, l.err
}

func (l *refLexer) run() {
	depth := 0
	lines := strings.Split(l.src, "\n")
	for i, raw := range lines {
		l.line = i + 1
		text := raw
		// Strip comments: "--" to end of line, outside quotes.
		text = stripOccamComment(text)
		trimmed := strings.TrimRight(text, " \t")
		if strings.TrimSpace(trimmed) == "" {
			continue // blank or comment-only line
		}
		indent := 0
		for indent < len(trimmed) && trimmed[indent] == ' ' {
			indent++
		}
		if strings.HasPrefix(trimmed[indent:], "\t") || strings.Contains(trimmed[:indent], "\t") {
			l.fail(indent+1, "tabs are not allowed in occam indentation")
			return
		}
		if indent%2 != 0 {
			l.fail(indent+1, "indentation must be a multiple of two spaces")
			return
		}
		level := indent / 2
		for depth < level {
			depth++
			l.emit(token{kind: tokIndent, line: l.line, col: 1})
		}
		for depth > level {
			depth--
			l.emit(token{kind: tokDedent, line: l.line, col: 1})
		}
		l.scanLine(trimmed[indent:], indent)
		if l.err != nil {
			return
		}
		l.emit(token{kind: tokNewline, line: l.line, col: len(trimmed) + 1})
	}
	for depth > 0 {
		depth--
		l.emit(token{kind: tokDedent, line: l.line + 1, col: 1})
	}
	l.emit(token{kind: tokEOF, line: l.line + 1, col: 1})
}

func (l *refLexer) emit(t token) { l.tokens = append(l.tokens, t) }

func (l *refLexer) fail(col int, msg string) {
	if l.err == nil {
		l.err = errf(l.line, col, "%s", msg)
	}
}

// scanLine tokenizes the body of one line (indentation already
// consumed).
func (l *refLexer) scanLine(s string, baseCol int) {
	i := 0
	col := func() int { return baseCol + i + 1 }
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ':
			i++
		case isLetter(c):
			start := i
			for i < len(s) && (isLetter(s[i]) || isDigit(s[i]) || s[i] == '.') {
				i++
			}
			word := s[start:i]
			kind := tokIdent
			if keywords[word] {
				kind = tokKeyword
			}
			l.emit(token{kind: kind, text: word, line: l.line, col: baseCol + start + 1})
		case isDigit(c):
			start := i
			v := int64(0)
			for i < len(s) && isDigit(s[i]) {
				v = v*10 + int64(s[i]-'0')
				i++
			}
			l.emit(token{kind: tokNumber, text: s[start:i], val: v, line: l.line, col: baseCol + start + 1})
		case c == '#':
			start := i
			i++
			v := int64(0)
			n := 0
			for i < len(s) && isHex(s[i]) {
				v = v*16 + int64(hexVal(s[i]))
				i++
				n++
			}
			if n == 0 {
				l.fail(col(), "malformed hex literal")
				return
			}
			l.emit(token{kind: tokNumber, text: s[start:i], val: v, line: l.line, col: baseCol + start + 1})
		case c == '\'':
			if i+2 < len(s) && s[i+2] == '\'' {
				l.emit(token{kind: tokChar, val: int64(s[i+1]), line: l.line, col: col()})
				i += 3
			} else if i+3 < len(s) && s[i+1] == '*' && s[i+3] == '\'' {
				// occam escapes: *c carriage return, *n newline, *t tab,
				// *s space, *' quote, ** asterisk.
				v, ok := occamEscape(s[i+2])
				if !ok {
					l.fail(col(), "unknown character escape")
					return
				}
				l.emit(token{kind: tokChar, val: int64(v), line: l.line, col: col()})
				i += 4
			} else {
				l.fail(col(), "malformed character literal")
				return
			}
		case c == '"':
			start := i
			i++
			var sb strings.Builder
			for i < len(s) && s[i] != '"' {
				if s[i] == '*' && i+1 < len(s) {
					v, ok := occamEscape(s[i+1])
					if !ok {
						l.fail(col(), "unknown string escape")
						return
					}
					sb.WriteByte(v)
					i += 2
					continue
				}
				sb.WriteByte(s[i])
				i++
			}
			if i >= len(s) {
				l.fail(baseCol+start+1, "unterminated string")
				return
			}
			i++
			l.emit(token{kind: tokString, text: sb.String(), line: l.line, col: baseCol + start + 1})
		default:
			// Symbols, longest first.
			rest := s[i:]
			sym := ""
			for _, cand := range []string{":=", "<=", ">=", "<>", "<<", ">>", "/\\", "\\/", "><",
				"(", ")", "[", "]", ",", ":", "=", "<", ">", "+", "-", "*", "/", "\\", "!", "?", "&", ";"} {
				if strings.HasPrefix(rest, cand) {
					sym = cand
					break
				}
			}
			if sym == "" {
				l.fail(col(), "unexpected character "+string(c))
				return
			}
			l.emit(token{kind: tokSymbol, text: sym, line: l.line, col: col()})
			i += len(sym)
		}
	}
}
