// The builder as it was when labels were strings, kept verbatim but
// for its identifiers as the reference FuzzBuilderDifferential holds
// Builder to: the same items must encode to the same code and marks,
// put the text assembler's labels at the same offsets, and fail with
// the same error.

package asm

import (
	"fmt"

	"transputer/internal/isa"
)

// refItemKind discriminates builder items.
type refItemKind int

const (
	refKindFn     refItemKind = iota // direct function, literal operand
	refKindOp                        // indirect operation
	refKindBranch                    // direct function, label-relative operand
	refKindDiff                      // direct function, operand = labelA - labelB
	refKindAbs                       // direct function, operand = label offset
	refKindLdpi                      // ldc (label - here) ; ldpi
	refKindBytes                     // raw data bytes
	refKindAlign                     // pad to word boundary
	refKindMark                      // zero-size source-line marker
)

type refItem struct {
	kind    refItemKind
	fn      isa.Function
	op      isa.Op
	operand int64
	label   string // branch/abs/ldpi target, or diff minuend
	label2  string // diff subtrahend
	bytes   []byte
	size    int // current encoded size estimate
	// srcLine, for error reporting from the text assembler.
	srcLine int
}

// refBuilder accumulates symbolic instructions and data, then encodes them
// with minimal prefix sequences.
type refBuilder struct {
	items  []refItem
	labels map[string]int // label -> refItem index
	// wordBytes is used by the align directive.
	wordBytes int
}

// newRefBuilder returns a builder for a machine with the given bytes per
// word (used only for alignment).
func newRefBuilder(wordBytes int) *refBuilder {
	return &refBuilder{labels: make(map[string]int), wordBytes: wordBytes}
}

// Label defines a label at the current position.
func (b *refBuilder) Label(name string) error {
	if _, dup := b.labels[name]; dup {
		return fmt.Errorf("asm: duplicate label %q", name)
	}
	b.labels[name] = len(b.items)
	return nil
}

// MustLabel is Label for generated (collision-free) names.
func (b *refBuilder) MustLabel(name string) {
	if err := b.Label(name); err != nil {
		panic(err)
	}
}

// Fn appends a direct function with a literal operand.
func (b *refBuilder) Fn(fn isa.Function, operand int64) {
	b.items = append(b.items, refItem{kind: refKindFn, fn: fn, operand: operand, size: 1})
}

// Op appends an indirect operation.
func (b *refBuilder) Op(op isa.Op) {
	b.items = append(b.items, refItem{kind: refKindOp, op: op, size: len(isa.EncodeOp(nil, op))})
}

// Branch appends a direct function whose operand is the distance from
// the address following this instruction to the label.
func (b *refBuilder) Branch(fn isa.Function, label string) {
	b.items = append(b.items, refItem{kind: refKindBranch, fn: fn, label: label, size: 1})
}

// Diff appends a direct function whose operand is the byte distance
// labelA - labelB.
func (b *refBuilder) Diff(fn isa.Function, labelA, labelB string) {
	b.items = append(b.items, refItem{kind: refKindDiff, fn: fn, label: labelA, label2: labelB, size: 1})
}

// Abs appends a direct function whose operand is the byte offset of the
// label from the start of the code image.
func (b *refBuilder) Abs(fn isa.Function, label string) {
	b.items = append(b.items, refItem{kind: refKindAbs, fn: fn, label: label, size: 1})
}

// Ldpi appends "load constant (label - here); load pointer to
// instruction", leaving the absolute address of the label in A.
func (b *refBuilder) Ldpi(label string) {
	b.items = append(b.items, refItem{kind: refKindLdpi, label: label, size: 1 + len(isa.EncodeOp(nil, isa.OpLdpi))})
}

// Bytes appends raw data.
func (b *refBuilder) Bytes(data []byte) {
	b.items = append(b.items, refItem{kind: refKindBytes, bytes: data, size: len(data)})
}

// Word appends a little-endian word of the builder's width.
func (b *refBuilder) Word(v int64) {
	data := make([]byte, b.wordBytes)
	u := uint64(v)
	for i := range data {
		data[i] = byte(u)
		u >>= 8
	}
	b.Bytes(data)
}

// Align pads with zero bytes to the next word boundary.
func (b *refBuilder) Align() {
	b.items = append(b.items, refItem{kind: refKindAlign})
}

// Mark records that code emitted from here until the next mark derives
// from the given source line.  Marks occupy no space; they surface in
// the assembled refResult as a source map.
func (b *refBuilder) Mark(line int) {
	b.items = append(b.items, refItem{kind: refKindMark, srcLine: line})
}

// refResult is an assembled code image with its symbol table and source
// map.
type refResult struct {
	Code   []byte
	Labels map[string]int // label -> byte offset
	Marks  []isa.SourceMark
}

// Assemble resolves all labels and encodes the program.
func (b *refBuilder) Assemble() (*refResult, error) {
	// Fixpoint sizing: start from current minimal estimates; recompute
	// operand sizes from label offsets until stable.
	offsets := make([]int, len(b.items)+1)
	for pass := 0; ; pass++ {
		if pass > 8+len(b.items) {
			return nil, fmt.Errorf("asm: label fixpoint failed to converge")
		}
		// Recompute offsets from sizes.
		pos := 0
		for i := range b.items {
			offsets[i] = pos
			if b.items[i].kind == refKindAlign {
				pad := 0
				if b.wordBytes > 0 && pos%b.wordBytes != 0 {
					pad = b.wordBytes - pos%b.wordBytes
				}
				b.items[i].size = pad
			}
			pos += b.items[i].size
		}
		offsets[len(b.items)] = pos
		changed := false
		for i := range b.items {
			it := &b.items[i]
			operand, err := b.operandFor(it, offsets, i)
			if err != nil {
				return nil, err
			}
			var size int
			switch it.kind {
			case refKindFn, refKindBranch, refKindDiff, refKindAbs:
				size = isa.OperandLength(operand)
			case refKindLdpi:
				size = isa.OperandLength(operand) + len(isa.EncodeOp(nil, isa.OpLdpi))
			default:
				continue
			}
			if size > it.size {
				it.size = size
				changed = true
			}
		}
		if !changed {
			break
		}
	}

	// Emit.
	var code []byte
	labels := make(map[string]int, len(b.labels))
	for name, idx := range b.labels {
		labels[name] = offsets[idx]
	}
	var marks []isa.SourceMark
	for i := range b.items {
		it := &b.items[i]
		start := len(code)
		switch it.kind {
		case refKindMark:
			// Successive marks at one offset collapse to the last.
			if n := len(marks); n > 0 && marks[n-1].Offset == len(code) {
				marks[n-1].Line = it.srcLine
			} else {
				marks = append(marks, isa.SourceMark{Offset: len(code), Line: it.srcLine})
			}
			continue
		case refKindBytes:
			code = append(code, it.bytes...)
		case refKindAlign:
			for len(code)-start < it.size {
				code = append(code, 0)
			}
		case refKindOp:
			code = append(code, isa.EncodeOp(nil, it.op)...)
		case refKindLdpi:
			operand, _ := b.operandFor(it, offsets, i)
			var enc []byte
			enc = isa.EncodeOperand(enc, isa.FnLdc, operand)
			enc = isa.EncodeOp(enc, isa.OpLdpi)
			code = refAppendPadded(code, enc, it.size)
		default:
			operand, _ := b.operandFor(it, offsets, i)
			enc := isa.EncodeOperand(nil, it.fn, operand)
			code = refAppendPadded(code, enc, it.size)
		}
		if len(code)-start != it.size {
			return nil, fmt.Errorf("asm: refItem %d encoded %d bytes, reserved %d",
				i, len(code)-start, it.size)
		}
	}
	return &refResult{Code: code, Labels: labels, Marks: marks}, nil
}

// refAppendPadded appends enc front-padded to exactly size bytes with
// "prefix 0" bytes, which leave a zero operand register unchanged and
// so are semantically transparent.  Front padding keeps the instruction
// end (and hence relative branch arithmetic) at the reserved boundary
// if a later fixpoint pass shrank the operand.
func refAppendPadded(code, enc []byte, size int) []byte {
	for len(enc) < size {
		code = append(code, byte(isa.FnPfix)<<4)
		size--
	}
	return append(code, enc...)
}

// operandFor computes the operand of refItem i given current offsets.
func (b *refBuilder) operandFor(it *refItem, offsets []int, i int) (int64, error) {
	lookup := func(name string) (int, error) {
		idx, ok := b.labels[name]
		if !ok {
			return 0, fmt.Errorf("asm: undefined label %q (line %d)", name, it.srcLine)
		}
		return offsets[idx], nil
	}
	switch it.kind {
	case refKindFn, refKindOp, refKindBytes, refKindAlign, refKindMark:
		return it.operand, nil
	case refKindBranch:
		target, err := lookup(it.label)
		if err != nil {
			return 0, err
		}
		return int64(target - (offsets[i] + it.size)), nil
	case refKindDiff:
		a, err := lookup(it.label)
		if err != nil {
			return 0, err
		}
		c, err := lookup(it.label2)
		if err != nil {
			return 0, err
		}
		return int64(a - c), nil
	case refKindAbs:
		target, err := lookup(it.label)
		if err != nil {
			return 0, err
		}
		return int64(target), nil
	case refKindLdpi:
		target, err := lookup(it.label)
		if err != nil {
			return 0, err
		}
		return int64(target - (offsets[i] + it.size)), nil
	}
	return 0, fmt.Errorf("asm: bad refItem kind %d", it.kind)
}
