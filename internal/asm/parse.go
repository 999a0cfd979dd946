package asm

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"transputer/internal/core"
	"transputer/internal/isa"
)

// Source is the text assembly language:
//
//	-- comments run to end of line (';' also accepted)
//	entry main            -- directives: entry, ws <below> <above>, data <n>
//	ws 16 8
//	main:
//	        ldc #754      -- hex as in the paper
//	        stl 1
//	loop:   ldl 1
//	        adc -1
//	        cj done       -- a label operand is ip-relative
//	        j loop
//	done:   ldc end-start -- difference of two labels
//	        ldpi table    -- pseudo: loads the address of a label
//	        byte 1, 2, 'A'
//	        word 100, -2
//	        align
//
// Operations (operate functions) take no operand: "in", "out", "add"...

// Assembled is the output of the text assembler.
type Assembled struct {
	Image  core.Image
	Labels map[string]int
}

// Assemble parses and encodes a source file for a machine with the
// given bytes per word.
func Assemble(src string, wordBytes int) (*Assembled, error) {
	b := NewBuilder(wordBytes)
	names := newLabelNames(b)
	var entry string
	img := core.Image{WsBelow: 64, WsAbove: 64}
	space := maxSpace

	for lineNo, raw := range strings.Split(src, "\n") {
		line := stripComment(raw)
		line = strings.ReplaceAll(line, "\t", " ")
		line = strings.TrimSpace(line)
		// Peel off any leading labels.
		for {
			idx := strings.Index(line, ":")
			if idx < 0 {
				break
			}
			name := strings.TrimSpace(line[:idx])
			if !isIdent(name) {
				break
			}
			if err := names.define(name); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
			}
			line = strings.TrimSpace(line[idx+1:])
		}
		if line == "" {
			continue
		}
		fields := strings.SplitN(line, " ", 2)
		mnem := fields[0]
		rest := ""
		if len(fields) == 2 {
			rest = strings.TrimSpace(fields[1])
		}
		if err := assembleLine(names, &img, &entry, &space, mnem, rest, lineNo+1); err != nil {
			return nil, err
		}
	}

	res, labels, err := names.assemble()
	if err != nil {
		return nil, err
	}
	img.Code = res.Code
	img.Marks = res.Marks
	if entry != "" {
		off, ok := labels[entry]
		if !ok {
			return nil, fmt.Errorf("asm: undefined entry label %q", entry)
		}
		img.Entry = off
	}
	return &Assembled{Image: img, Labels: labels}, nil
}

// labelNames gives a builder's labels the names a source spells them
// with: the builder itself knows labels only by number.
type labelNames struct {
	b   *Builder
	ids map[string]Label
	// By label: its name, whether the source has defined it, and the
	// source line of its first reference.
	names   []string
	defined []bool
	refLine []int
}

func newLabelNames(b *Builder) *labelNames {
	return &labelNames{b: b, ids: make(map[string]Label)}
}

func (n *labelNames) label(name string) Label {
	if l, ok := n.ids[name]; ok {
		return l
	}
	l := n.b.NewLabel()
	n.ids[name] = l
	n.names = append(n.names, name)
	n.defined = append(n.defined, false)
	n.refLine = append(n.refLine, 0)
	return l
}

// define places the named label at the current position.
func (n *labelNames) define(name string) error {
	l := n.label(name)
	if n.defined[l] {
		return fmt.Errorf("asm: duplicate label %q", name)
	}
	n.defined[l] = true
	n.b.Define(l)
	return nil
}

// ref is the named label as an operand on the given source line.
func (n *labelNames) ref(name string, line int) Label {
	l := n.label(name)
	if n.refLine[l] == 0 {
		n.refLine[l] = line
	}
	return l
}

// assemble assembles the program and returns its labels' offsets by
// name.  A label used but never defined is named in the error with the
// line that first used it.
func (n *labelNames) assemble() (*Result, map[string]int, error) {
	res, err := n.b.Assemble()
	var undef *undefinedLabelError
	if errors.As(err, &undef) {
		return nil, nil, fmt.Errorf("asm: undefined label %q (line %d)", n.names[undef.label], n.refLine[undef.label])
	}
	if err != nil {
		return nil, nil, err
	}
	labels := make(map[string]int, len(n.names))
	for l, name := range n.names {
		if n.defined[l] {
			labels[name] = n.b.Offset(Label(l))
		}
	}
	return res, labels, nil
}

// maxSpace is how many bytes the space directives of one source may
// reserve between them.  They are zeros the image carries, so a typo
// (or a hostile source) would otherwise have the assembler allocate
// whatever it names; a buffer this size belongs in the data directive,
// which reserves without filling.
const maxSpace = 16 << 20

// assembleLine assembles one directive or instruction; space is what
// the source's space directives may still reserve.
func assembleLine(names *labelNames, img *core.Image, entry *string, space *int, mnem, rest string, line int) error {
	b := names.b
	switch mnem {
	case "entry":
		*entry = rest
		return nil
	case "ws":
		parts := strings.Fields(rest)
		if len(parts) != 2 {
			return fmt.Errorf("line %d: ws takes <below> <above>", line)
		}
		below, err1 := strconv.Atoi(parts[0])
		above, err2 := strconv.Atoi(parts[1])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("line %d: bad ws operands", line)
		}
		img.WsBelow, img.WsAbove = below, above
		return nil
	case "data":
		n, err := strconv.Atoi(rest)
		if err != nil {
			return fmt.Errorf("line %d: bad data size", line)
		}
		img.DataBytes = n
		return nil
	case "byte", "word":
		for _, part := range strings.Split(rest, ",") {
			v, err := parseNumber(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("line %d: %v", line, err)
			}
			if mnem == "byte" {
				b.Bytes([]byte{byte(v)})
			} else {
				b.Word(v)
			}
		}
		return nil
	case "align":
		b.Align()
		return nil
	case "space":
		n, err := strconv.Atoi(rest)
		if err != nil || n < 0 {
			return fmt.Errorf("line %d: bad space size", line)
		}
		if n > *space {
			return fmt.Errorf("line %d: space directives reserve more than %d bytes in all", line, maxSpace)
		}
		*space -= n
		b.Bytes(make([]byte, n))
		return nil
	case "ldpi":
		b.Mark(line)
		if rest != "" && isIdent(rest) {
			b.Ldpi(names.ref(rest, line))
			return nil
		}
		b.Op(isa.OpLdpi)
		return nil
	}

	if fn, ok := isa.FunctionByMnemonic(mnem); ok && fn != isa.FnOpr {
		b.Mark(line)
		return assembleOperand(names, fn, rest, line)
	}
	if op, ok := isa.OpByMnemonic(mnem); ok {
		if rest != "" {
			return fmt.Errorf("line %d: operation %s takes no operand", line, mnem)
		}
		b.Mark(line)
		b.Op(op)
		return nil
	}
	return fmt.Errorf("line %d: unknown mnemonic %q", line, mnem)
}

func assembleOperand(names *labelNames, fn isa.Function, rest string, line int) error {
	b := names.b
	if rest == "" {
		return fmt.Errorf("line %d: %s needs an operand", line, fn.Mnemonic())
	}
	if isIdent(rest) {
		b.Branch(fn, names.ref(rest, line))
		return nil
	}
	if i := strings.Index(rest, "-"); i > 0 {
		a, c := strings.TrimSpace(rest[:i]), strings.TrimSpace(rest[i+1:])
		if isIdent(a) && isIdent(c) {
			b.Diff(fn, names.ref(a, line), names.ref(c, line))
			return nil
		}
	}
	v, err := parseNumber(rest)
	if err != nil {
		return fmt.Errorf("line %d: %v", line, err)
	}
	b.Fn(fn, v)
	return nil
}

func stripComment(line string) string {
	// Character literals cannot contain comment markers in this
	// assembler, so plain scanning suffices.
	if i := strings.Index(line, ";"); i >= 0 {
		line = line[:i]
	}
	if i := strings.Index(line, "--"); i >= 0 {
		line = line[:i]
	}
	return line
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == '.':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// parseNumber accepts decimal, #hex (the paper's convention) and
// quoted character literals.
func parseNumber(s string) (int64, error) {
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = strings.TrimSpace(s[1:])
	}
	var v int64
	switch {
	case strings.HasPrefix(s, "#"):
		u, err := strconv.ParseUint(s[1:], 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad hex literal %q", s)
		}
		v = int64(u)
	case len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'':
		if len(s) != 3 {
			return 0, fmt.Errorf("bad character literal %q", s)
		}
		v = int64(s[1])
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("bad number %q", s)
		}
		v = n
	}
	if neg {
		v = -v
	}
	return v, nil
}
