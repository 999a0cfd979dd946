// Package asm provides a symbolic instruction builder and a two-pass
// text assembler for the I1 instruction set.
//
// Branch operands are instruction-pointer relative and the encoded size
// of an instruction depends on its operand, so label-relative operands
// are resolved by fixpoint iteration: sizes only ever grow, so the
// iteration terminates.
package asm

import (
	"fmt"

	"transputer/internal/isa"
)

// itemKind discriminates builder items.
type itemKind uint8

const (
	kindFn     itemKind = iota // direct function, literal operand
	kindOp                     // indirect operation
	kindBranch                 // direct function, label-relative operand
	kindDiff                   // direct function, operand = labelA - labelB
	kindAbs                    // direct function, operand = label offset
	kindLdpi                   // ldc (label - here) ; ldpi
	kindBytes                  // raw data bytes
	kindAlign                  // pad to word boundary
	kindMark                   // zero-size source-line marker
)

// Label names a position in the code: NewLabel makes one, Define
// places it.  Labels are small integers, so generated code names its
// branch targets without formatting or hashing a string.
type Label int32

// item is one symbolic instruction, directive or mark: 24 bytes, with
// data bytes held in the builder's data buffer rather than the item.
type item struct {
	// arg is the literal operand (kindFn), the operation (kindOp), the
	// offset of the data in Builder.data (kindBytes) or the source line
	// (kindMark).
	arg  int64
	a, b Label // branch/abs/ldpi target, or diff minuend (a) and subtrahend (b)
	size int32 // current encoded size estimate
	kind itemKind
	fn   isa.Function
}

// Builder accumulates symbolic instructions and data, then encodes them
// with minimal prefix sequences.
type Builder struct {
	items []item
	// labels holds each label's item index, or -1 while undefined.
	labels []int32
	data   []byte // the bytes of every kindBytes item, end to end
	// offsets holds each item's byte offset once Assemble has run, and
	// the code length at the end.
	offsets []int32
	// wordBytes is used by the align directive.
	wordBytes int
	// redefined is the first label defined twice, which Assemble
	// reports, or -1.
	redefined Label
}

// NewBuilder returns a builder for a machine with the given bytes per
// word (used only for alignment).
func NewBuilder(wordBytes int) *Builder {
	return &Builder{wordBytes: wordBytes, redefined: -1}
}

// Grow sizes the builder for about items more items and labels more
// labels, so a caller that can estimate its program's size from its
// source pays for one buffer of each instead of a series of doublings.
func (b *Builder) Grow(items, labels int) {
	if n := len(b.items) + items; n > cap(b.items) {
		grown := make([]item, len(b.items), n)
		copy(grown, b.items)
		b.items = grown
	}
	if n := len(b.labels) + labels; n > cap(b.labels) {
		grown := make([]int32, len(b.labels), n)
		copy(grown, b.labels)
		b.labels = grown
	}
}

// Reset empties the builder for another program and keeps its buffers.
func (b *Builder) Reset() {
	b.items, b.labels, b.data = b.items[:0], b.labels[:0], b.data[:0]
	b.redefined = -1
}

// NewLabel returns a label no code has been placed at yet.
func (b *Builder) NewLabel() Label {
	b.labels = append(b.labels, -1)
	return Label(len(b.labels) - 1)
}

// Define places a label at the current position.  A label is defined
// once; Assemble refuses a program that defines one twice.
func (b *Builder) Define(l Label) {
	if b.labels[l] >= 0 && b.redefined < 0 {
		b.redefined = l
	}
	b.labels[l] = int32(len(b.items))
}

// DropJump removes a j to l that nothing but source marks follows, for
// a caller about to place l there: the jump would only land on the
// instruction after it.
func (b *Builder) DropJump(l Label) {
	i := len(b.items) - 1
	for i >= 0 && b.items[i].kind == kindMark {
		i--
	}
	if i < 0 || b.items[i].kind != kindBranch || b.items[i].fn != isa.FnJ || b.items[i].a != l {
		return
	}
	b.items = append(b.items[:i], b.items[i+1:]...)
	for k, at := range b.labels {
		if at > int32(i) {
			b.labels[k] = at - 1
		}
	}
}

// Offset is a label's byte offset from the start of the code image,
// valid once Assemble has succeeded.
func (b *Builder) Offset(l Label) int { return int(b.offsets[b.labels[l]]) }

// Fn appends a direct function with a literal operand.
func (b *Builder) Fn(fn isa.Function, operand int64) {
	b.items = append(b.items, item{kind: kindFn, fn: fn, arg: operand, size: 1})
}

// Op appends an indirect operation.
func (b *Builder) Op(op isa.Op) {
	b.items = append(b.items, item{kind: kindOp, arg: int64(op), size: int32(isa.OperandLength(int64(op)))})
}

// Branch appends a direct function whose operand is the distance from
// the address following this instruction to the label.
func (b *Builder) Branch(fn isa.Function, l Label) {
	b.items = append(b.items, item{kind: kindBranch, fn: fn, a: l, size: 1})
}

// Diff appends a direct function whose operand is the byte distance
// la - lb.
func (b *Builder) Diff(fn isa.Function, la, lb Label) {
	b.items = append(b.items, item{kind: kindDiff, fn: fn, a: la, b: lb, size: 1})
}

// Abs appends a direct function whose operand is the byte offset of the
// label from the start of the code image.
func (b *Builder) Abs(fn isa.Function, l Label) {
	b.items = append(b.items, item{kind: kindAbs, fn: fn, a: l, size: 1})
}

// ldpiLength is the length of the operate instruction of Ldpi.
var ldpiLength = isa.OperandLength(int64(isa.OpLdpi))

// Ldpi appends "load constant (label - here); load pointer to
// instruction", leaving the absolute address of the label in A.
func (b *Builder) Ldpi(l Label) {
	b.items = append(b.items, item{kind: kindLdpi, a: l, size: int32(1 + ldpiLength)})
}

// Bytes appends raw data, copied.
func (b *Builder) Bytes(data []byte) {
	b.items = append(b.items, item{kind: kindBytes, arg: int64(len(b.data)), size: int32(len(data))})
	b.data = append(b.data, data...)
}

// Word appends a little-endian word of the builder's width.
func (b *Builder) Word(v int64) {
	b.items = append(b.items, item{kind: kindBytes, arg: int64(len(b.data)), size: int32(b.wordBytes)})
	u := uint64(v)
	for i := 0; i < b.wordBytes; i++ {
		b.data = append(b.data, byte(u))
		u >>= 8
	}
}

// Align pads with zero bytes to the next word boundary.
func (b *Builder) Align() {
	b.items = append(b.items, item{kind: kindAlign})
}

// Mark records that code emitted from here until the next mark derives
// from the given source line.  Marks occupy no space; they surface in
// the assembled Result as a source map.
func (b *Builder) Mark(line int) {
	b.items = append(b.items, item{kind: kindMark, arg: int64(line)})
}

// Result is an assembled code image with its source map.
type Result struct {
	Code  []byte
	Marks []isa.SourceMark
}

// undefinedLabelError is the error Assemble returns for a reference to
// a label that was never defined.
type undefinedLabelError struct{ label Label }

func (e *undefinedLabelError) Error() string {
	return fmt.Sprintf("asm: undefined label %d", e.label)
}

// Assemble resolves all labels and encodes the program into a code
// image of exactly its length.
func (b *Builder) Assemble() (*Result, error) {
	if b.redefined >= 0 {
		return nil, fmt.Errorf("asm: label %d defined twice", b.redefined)
	}
	if err := b.checkDefined(); err != nil {
		return nil, err
	}
	// Fixpoint sizing: start from current minimal estimates; recompute
	// operand sizes from label offsets until stable.
	if n := len(b.items) + 1; cap(b.offsets) < n {
		b.offsets = make([]int32, n)
	} else {
		b.offsets = b.offsets[:n]
	}
	offsets := b.offsets
	for pass := 0; ; pass++ {
		if pass > 8+len(b.items) {
			return nil, fmt.Errorf("asm: label fixpoint failed to converge")
		}
		// Recompute offsets from sizes.
		pos := int32(0)
		for i := range b.items {
			offsets[i] = pos
			if b.items[i].kind == kindAlign {
				pad := int32(0)
				if w := int32(b.wordBytes); w > 0 && pos%w != 0 {
					pad = w - pos%w
				}
				b.items[i].size = pad
			}
			pos += b.items[i].size
		}
		offsets[len(b.items)] = pos
		changed := false
		for i := range b.items {
			it := &b.items[i]
			var size int32
			switch it.kind {
			case kindFn, kindBranch, kindDiff, kindAbs:
				size = int32(isa.OperandLength(b.operandFor(it, i)))
			case kindLdpi:
				size = int32(isa.OperandLength(b.operandFor(it, i)) + ldpiLength)
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

	// Emit into one buffer of the final length; padding and alignment
	// are the zeros it starts with.
	var code []byte
	if n := offsets[len(b.items)]; n > 0 {
		code = make([]byte, n)
	}
	nMarks := 0
	last := int32(-1)
	for i := range b.items {
		if b.items[i].kind == kindMark && offsets[i] != last {
			nMarks++
			last = offsets[i]
		}
	}
	var marks []isa.SourceMark
	if nMarks > 0 {
		marks = make([]isa.SourceMark, 0, nMarks)
	}
	var scratch [2 * 16]byte // the longest ldc-with-prefixes plus ldpi
	for i := range b.items {
		it := &b.items[i]
		start := offsets[i]
		var enc []byte
		switch it.kind {
		case kindMark:
			// Successive marks at one offset collapse to the last.
			if n := len(marks); n > 0 && marks[n-1].Offset == int(start) {
				marks[n-1].Line = int(it.arg)
			} else {
				marks = append(marks, isa.SourceMark{Offset: int(start), Line: int(it.arg)})
			}
			continue
		case kindAlign:
			continue
		case kindBytes:
			copy(code[start:], b.data[it.arg:it.arg+int64(it.size)])
			continue
		case kindFn:
			enc = isa.EncodeOperand(scratch[:0], it.fn, it.arg)
		case kindOp:
			enc = isa.EncodeOp(scratch[:0], isa.Op(it.arg))
		case kindLdpi:
			enc = isa.EncodeOperand(scratch[:0], isa.FnLdc, b.operandFor(it, i))
			enc = isa.EncodeOp(enc, isa.OpLdpi)
		default:
			enc = isa.EncodeOperand(scratch[:0], it.fn, b.operandFor(it, i))
		}
		if len(enc) > int(it.size) {
			return nil, fmt.Errorf("asm: item %d encoded %d bytes, reserved %d", i, len(enc), it.size)
		}
		putPadded(code[start:start+it.size], enc)
	}
	return &Result{Code: code, Marks: marks}, nil
}

// checkDefined finds the first reference, in item order, to a label
// that was never defined.
func (b *Builder) checkDefined() error {
	for i := range b.items {
		it := &b.items[i]
		switch it.kind {
		case kindBranch, kindAbs, kindLdpi:
			if b.labels[it.a] < 0 {
				return &undefinedLabelError{it.a}
			}
		case kindDiff:
			if b.labels[it.a] < 0 {
				return &undefinedLabelError{it.a}
			}
			if b.labels[it.b] < 0 {
				return &undefinedLabelError{it.b}
			}
		}
	}
	return nil
}

// putPadded writes enc into dst front-padded to its whole length with
// "prefix 0" bytes, which leave a zero operand register unchanged and
// so are semantically transparent.  Front padding keeps the instruction
// end (and hence relative branch arithmetic) at the reserved boundary
// if a later fixpoint pass shrank the operand.
func putPadded(dst, enc []byte) {
	pad := len(dst) - len(enc)
	for i := 0; i < pad; i++ {
		dst[i] = byte(isa.FnPfix) << 4
	}
	copy(dst[pad:], enc)
}

// operandFor computes the operand of label-relative item i given the
// current offsets.
func (b *Builder) operandFor(it *item, i int) int64 {
	at := func(l Label) int64 { return int64(b.offsets[b.labels[l]]) }
	switch it.kind {
	case kindBranch, kindLdpi:
		return at(it.a) - int64(b.offsets[i]+it.size)
	case kindDiff:
		return at(it.a) - at(it.b)
	case kindAbs:
		return at(it.a)
	}
	return it.arg
}
