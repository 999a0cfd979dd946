package asm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"transputer/internal/isa"
)

func mustAssemble(t *testing.T, src string) *Assembled {
	t.Helper()
	a, err := Assemble(src, 4)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return a
}

func TestAssembleSimple(t *testing.T) {
	a := mustAssemble(t, `
		ldc 0
		stl 1
	`)
	want := []byte{0x40, 0xD1}
	if string(a.Image.Code) != string(want) {
		t.Errorf("code = % X, want % X", a.Image.Code, want)
	}
}

func TestAssembleHexAndChar(t *testing.T) {
	a := mustAssemble(t, `
		ldc #754
		ldc 'A'
	`)
	want := []byte{0x27, 0x25, 0x44, 0x24, 0x41}
	if string(a.Image.Code) != string(want) {
		t.Errorf("code = % X, want % X", a.Image.Code, want)
	}
}

func TestAssembleOperations(t *testing.T) {
	a := mustAssemble(t, `
		add
		in
		mul
	`)
	want := []byte{0xF5, 0xF7, 0x25, 0xF3}
	if string(a.Image.Code) != string(want) {
		t.Errorf("code = % X, want % X", a.Image.Code, want)
	}
}

func TestBackwardBranch(t *testing.T) {
	a := mustAssemble(t, `
	loop:
		ldl 1
		adc -1
		j loop
	`)
	// ldl 1 (1 byte), adc -1 (2 bytes: nfix 0, adc 15), j loop.
	// j is at offset 3; target 0; operand = 0 - (3 + size).
	lines := isa.DisassembleAll(a.Image.Code)
	last := lines[len(lines)-1].Instr
	if last.Fn != isa.FnJ {
		t.Fatalf("last instr = %v", last)
	}
	wantTarget := 0
	got := lines[len(lines)-1].Offset + last.Size + int(last.Operand)
	if got != wantTarget {
		t.Errorf("jump lands at %d, want %d", got, wantTarget)
	}
}

func TestForwardBranchFixpoint(t *testing.T) {
	// A forward jump over >16 bytes needs a prefix, which itself moves
	// the target; the fixpoint must settle.
	var sb strings.Builder
	sb.WriteString("\tj done\n")
	for i := 0; i < 40; i++ {
		sb.WriteString("\tldc 1\n")
	}
	sb.WriteString("done:\n\tldc 2\n")
	a := mustAssemble(t, sb.String())
	lines := isa.DisassembleAll(a.Image.Code)
	first := lines[0].Instr
	if first.Fn != isa.FnJ {
		t.Fatalf("first instr = %v", first)
	}
	land := lines[0].Offset + first.Size + int(first.Operand)
	if land != a.Labels["done"] {
		t.Errorf("jump lands at %d, want label done at %d", land, a.Labels["done"])
	}
	// The landing instruction must be ldc 2.
	instr, ok := isa.Decode(a.Image.Code, land)
	if !ok || instr.Fn != isa.FnLdc || instr.Operand != 2 {
		t.Errorf("landed on %v", instr)
	}
}

func TestEntryAndWs(t *testing.T) {
	a := mustAssemble(t, `
		entry main
		ws 10 20
		ldc 1
	main:
		ldc 2
	`)
	if a.Image.Entry != a.Labels["main"] {
		t.Errorf("entry = %d, want %d", a.Image.Entry, a.Labels["main"])
	}
	if a.Image.WsBelow != 10 || a.Image.WsAbove != 20 {
		t.Errorf("ws = %d,%d", a.Image.WsBelow, a.Image.WsAbove)
	}
}

func TestDataDirectives(t *testing.T) {
	a := mustAssemble(t, `
		byte 1, 2, 'x'
		align
		word 258
	tab:
		word -1
	`)
	code := a.Image.Code
	if code[0] != 1 || code[1] != 2 || code[2] != 'x' {
		t.Errorf("bytes: % X", code[:3])
	}
	if len(code) != 12 {
		t.Fatalf("len = %d, want 12 (3 bytes + 1 pad + 2 words)", len(code))
	}
	if code[4] != 2 || code[5] != 1 {
		t.Errorf("word 258 = % X", code[4:8])
	}
	if a.Labels["tab"] != 8 {
		t.Errorf("tab = %d, want 8", a.Labels["tab"])
	}
	for i := 8; i < 12; i++ {
		if code[i] != 0xFF {
			t.Errorf("word -1 byte %d = %x", i, code[i])
		}
	}
}

func TestLdpiPseudo(t *testing.T) {
	a := mustAssemble(t, `
		ldpi tab
		j over
	tab:
		word 42
	over:
		ldc 0
	`)
	// First instruction(s): ldc (tab - after ldpi); ldpi.
	instr, ok := isa.Decode(a.Image.Code, 0)
	if !ok || instr.Fn != isa.FnLdc {
		t.Fatalf("first instr = %v", instr)
	}
	afterLdpi := instr.Size + len(isa.EncodeOp(nil, isa.OpLdpi))
	if int(instr.Operand)+afterLdpi != a.Labels["tab"] {
		t.Errorf("ldpi operand %d from %d does not reach tab at %d",
			instr.Operand, afterLdpi, a.Labels["tab"])
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"\tfrobnicate 3",
		"\tldc",
		"\tadd 3",
		"\tj nowhere",
		"\tldc #xyz",
		"a:\n a:\n\tldc 1",
		"\tentry missing\n\tldc 1",
		"\tws 1",
		// These two used to end the process: the assembler allocated
		// what the directive named (FuzzAssemble's hand-written seeds).
		"\tspace 99999999999999",
		"\tspace 9000000\n\tspace 9000000",
	}
	for _, src := range cases {
		if _, err := Assemble(src, 4); err == nil {
			t.Errorf("Assemble(%q) should fail", src)
		}
	}
}

func TestComments(t *testing.T) {
	a := mustAssemble(t, `
		ldc 1  -- occam style
		ldc 2  ; semicolon style
	`)
	if len(a.Image.Code) != 2 {
		t.Errorf("code = % X", a.Image.Code)
	}
}

// TestRoundTripProperty: assembling random ldc operands and decoding
// them recovers the operand.
func TestRoundTripProperty(t *testing.T) {
	f := func(v int32) bool {
		a, err := Assemble("\tldc "+itoa64(int64(v)), 4)
		if err != nil {
			return false
		}
		instr, ok := isa.Decode(a.Image.Code, 0)
		return ok && instr.Operand == int64(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func itoa64(v int64) string {
	if v < 0 {
		return "-" + itoa64(-v)
	}
	if v < 10 {
		return string(rune('0' + v))
	}
	return itoa64(v/10) + string(rune('0'+v%10))
}

func TestBuilderDiff(t *testing.T) {
	b := NewBuilder(4)
	start, end := b.NewLabel(), b.NewLabel()
	b.Define(start)
	b.Fn(isa.FnLdc, 1)
	b.Fn(isa.FnLdc, 2)
	b.Define(end)
	b.Diff(isa.FnLdc, end, start)
	res, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	instr, _ := isa.Decode(res.Code, b.Offset(end))
	if instr.Operand != 2 {
		t.Errorf("diff operand = %d, want 2", instr.Operand)
	}
}

func TestNegativeOperandMinInt(t *testing.T) {
	// The most negative 32-bit value must assemble and decode.
	a := mustAssemble(t, "\tldc -2147483648")
	instr, ok := isa.Decode(a.Image.Code, 0)
	if !ok || instr.Operand != -2147483648 {
		t.Errorf("got %v %v", instr, ok)
	}
}

// TestBuilderDisassemblerRoundTrip: random instruction streams encode
// and decode to the same (function, operand) sequence.
func TestBuilderDisassemblerRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(424))
	fns := []isa.Function{isa.FnLdc, isa.FnLdl, isa.FnStl, isa.FnAdc, isa.FnAjw, isa.FnEqc, isa.FnLdnl, isa.FnStnl, isa.FnLdlp, isa.FnLdnlp}
	ops := []isa.Op{isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpRev, isa.OpMint, isa.OpGt, isa.OpWsub, isa.OpIn, isa.OpOut}
	for round := 0; round < 50; round++ {
		b := NewBuilder(4)
		type want struct {
			fn   isa.Function
			op   isa.Op
			val  int64
			isOp bool
		}
		var wants []want
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				op := ops[rng.Intn(len(ops))]
				b.Op(op)
				wants = append(wants, want{op: op, isOp: true})
			} else {
				fn := fns[rng.Intn(len(fns))]
				v := int64(rng.Intn(1<<16) - 1<<15)
				b.Fn(fn, v)
				wants = append(wants, want{fn: fn, val: v})
			}
		}
		res, err := b.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		lines := isa.DisassembleAll(res.Code)
		if len(lines) != len(wants) {
			t.Fatalf("round %d: %d instructions decoded, want %d", round, len(lines), len(wants))
		}
		for i, w := range wants {
			in := lines[i].Instr
			if w.isOp {
				if !in.IsOp() || in.Op() != w.op {
					t.Fatalf("round %d instr %d: got %v, want op %v", round, i, in, w.op)
				}
			} else if in.Fn != w.fn || in.Operand != w.val {
				t.Fatalf("round %d instr %d: got %v, want %v %d", round, i, in, w.fn, w.val)
			}
		}
	}
}

// TestDropJump: a j to a label about to be placed after it goes, marks
// and all, and a label placed at the j lands on what follows; a j to
// any other label, or with an instruction after it, stays.
func TestDropJump(t *testing.T) {
	b := NewBuilder(4)
	at, end, other := b.NewLabel(), b.NewLabel(), b.NewLabel()
	b.Define(other)
	b.Op(isa.OpRev)
	b.Define(at)
	b.Branch(isa.FnJ, end)
	b.Mark(3)
	b.DropJump(other) // not the label jumped to: stays
	b.DropJump(end)
	b.Define(end)
	b.Branch(isa.FnJ, other)
	b.Op(isa.OpStopp)
	b.DropJump(other) // an instruction follows: stays
	res, err := b.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	want := isa.EncodeOp(nil, isa.OpRev)
	want = isa.EncodeOperand(want, isa.FnJ, -int64(len(want))-2)
	want = isa.EncodeOp(want, isa.OpStopp)
	if string(res.Code) != string(want) {
		t.Fatalf("code % X, want % X", res.Code, want)
	}
	if b.Offset(at) != b.Offset(end) || b.Offset(end) != len(isa.EncodeOp(nil, isa.OpRev)) {
		t.Errorf("labels at %d and %d, want both at the j after rev", b.Offset(at), b.Offset(end))
	}
}
