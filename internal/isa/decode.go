package isa

import "strconv"

// Instr is one decoded instruction: a direct function with its fully
// prefixed operand, or (when Fn == FnOpr) an indirect operation.
type Instr struct {
	Fn      Function
	Operand int64 // accumulated operand after prefixing
	Size    int   // total bytes consumed, including prefixes
}

// IsOp reports whether the instruction is an indirect operation.
func (i Instr) IsOp() bool { return i.Fn == FnOpr }

// Op returns the indirect operation selected by an operate instruction.
func (i Instr) Op() Op { return Op(i.Operand) }

// String renders the instruction using full paper-style names, e.g.
// "load constant 4" or "input message".
func (i Instr) String() string {
	if i.IsOp() {
		return i.Op().Name()
	}
	return fullWithOperand(i.Fn.Name(), i.Operand)
}

// Mnemonic renders the instruction in assembler short form, e.g. "ldc 4"
// or "in".
func (i Instr) Mnemonic() string {
	if i.IsOp() {
		return i.Op().Mnemonic()
	}
	return fullWithOperand(i.Fn.Mnemonic(), i.Operand)
}

func fullWithOperand(name string, operand int64) string {
	return name + " " + strconv.FormatInt(operand, 10)
}

// Decode reads one complete instruction (prefix sequence plus final
// function byte) from code starting at pc.  It mirrors the operand
// register mechanism: prefix shifts the accumulated operand up four
// places; negative prefix complements it first.  ok is false if pc is
// negative or the prefix sequence runs off the end of code.
func Decode(code []byte, pc int) (instr Instr, ok bool) {
	if pc < 0 {
		return Instr{}, false
	}
	var oreg int64
	size := 0
	for pc+size < len(code) {
		b := code[pc+size]
		size++
		fn := Function(b >> 4)
		data := int64(b & 0xF)
		switch fn {
		case FnPfix:
			oreg = (oreg | data) << 4
		case FnNfix:
			oreg = ^(oreg | data) << 4
		default:
			return Instr{Fn: fn, Operand: oreg | data, Size: size}, true
		}
	}
	return Instr{}, false
}
