package isa

import (
	"strings"
	"testing"
)

func TestDisassembleSimple(t *testing.T) {
	var code []byte
	code = EncodeOperand(code, FnLdc, 0)
	code = EncodeOperand(code, FnStl, 1)
	code = EncodeOp(code, OpIn)
	code = EncodeOp(code, OpMul)

	lines := DisassembleAll(code)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4", len(lines))
	}
	wantMnemonics := []string{"ldc 0", "stl 1", "in", "mul"}
	wantNames := []string{"load constant 0", "store local 1", "input message", "multiply"}
	for i, ln := range lines {
		if ln.Instr.Mnemonic() != wantMnemonics[i] {
			t.Errorf("line %d mnemonic = %q, want %q", i, ln.Instr.Mnemonic(), wantMnemonics[i])
		}
		if ln.Instr.String() != wantNames[i] {
			t.Errorf("line %d name = %q, want %q", i, ln.Instr.String(), wantNames[i])
		}
	}
}

func TestDisassembleOffsets(t *testing.T) {
	var code []byte
	code = EncodeOperand(code, FnLdc, 0x754) // 3 bytes
	code = EncodeOperand(code, FnJ, -20)     // nfix + j
	lines := DisassembleAll(code)
	if lines[0].Offset != 0 || lines[1].Offset != 3 {
		t.Errorf("offsets = %d,%d, want 0,3", lines[0].Offset, lines[1].Offset)
	}
	if lines[1].Instr.Operand != -20 {
		t.Errorf("jump operand = %d, want -20", lines[1].Instr.Operand)
	}
}

func TestDisassembleIncompleteTail(t *testing.T) {
	code := []byte{byte(FnLdc) << 4, byte(FnPfix)<<4 | 1}
	lines := DisassembleAll(code)
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	if lines[1].Instr.Size != 0 {
		t.Error("trailing prefix should be flagged incomplete")
	}
	s := Sdisassemble(code)
	if !strings.Contains(s, "incomplete") {
		t.Errorf("listing should mention incomplete tail:\n%s", s)
	}
}

func TestSdisassembleFormat(t *testing.T) {
	code := EncodeOperand(nil, FnLdc, 4)
	s := Sdisassemble(code)
	if !strings.Contains(s, "ldc 4") || !strings.Contains(s, "load constant 4") {
		t.Errorf("unexpected listing:\n%s", s)
	}
}
