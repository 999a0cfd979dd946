// Package occam compiles a subset of occam 1 — the language the
// transputer architecture is defined by (paper, section 2.2) — to I1
// instructions.
//
// The subset covers the paper's programming model: the primitive
// processes (assignment, input, output), the SEQ, PAR, ALT, IF and
// WHILE constructs with replicators, PRI PAR and PRI ALT, channel and
// variable declarations (including arrays), named constants, PROCs
// with VALUE/VAR/CHAN parameters, timers (TIME ? v, TIME ? AFTER e and
// timer guards), and channel placement on link addresses (PLACE).
// Restrictions against full occam are listed in the package README
// section of the repository documentation.
package occam

import "fmt"

type tokenKind int

const (
	tokEOF tokenKind = iota
	tokNewline
	tokIndent
	tokDedent
	tokIdent
	tokNumber
	tokChar
	tokString
	tokKeyword
	tokSymbol
)

// token is one lexical unit with source position.
type token struct {
	kind tokenKind
	text string
	val  int64 // for numbers and characters
	line int
	col  int
}

func (t token) String() string {
	switch t.kind {
	case tokEOF:
		return "end of file"
	case tokNewline:
		return "end of line"
	case tokIndent:
		return "indent"
	case tokDedent:
		return "dedent"
	case tokNumber:
		return fmt.Sprintf("number %d", t.val)
	case tokChar:
		return fmt.Sprintf("character %q", rune(t.val))
	case tokString:
		return fmt.Sprintf("string %q", t.text)
	default:
		return fmt.Sprintf("%q", t.text)
	}
}

// isKeyword reports whether a word is a keyword of the subset.
func isKeyword(word string) bool {
	switch word {
	case "SEQ", "PAR", "ALT", "IF", "WHILE",
		"PRI", "SKIP", "STOP", "VAR", "CHAN",
		"DEF", "PROC", "VALUE", "TRUE", "FALSE",
		"NOT", "AND", "OR", "AFTER", "FOR",
		"TIME", "PLACE", "AT", "ANY",
		"PLACED", "PROCESSOR", "BYTE":
		return true
	}
	return false
}

// Err is a compile-time diagnostic with position.
type Err struct {
	Line int
	Col  int
	Msg  string
}

func (e *Err) Error() string {
	return fmt.Sprintf("occam:%d:%d: %s", e.Line, e.Col, e.Msg)
}

func errf(line, col int, format string, args ...interface{}) *Err {
	return &Err{Line: line, Col: col, Msg: fmt.Sprintf(format, args...)}
}
