package asm

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"unsafe"

	"transputer/internal/isa"
)

// itemStream decodes fuzz bytes into builder calls; past the end of
// its input it reads zeros.
type itemStream struct {
	data []byte
	pos  int
}

func (s *itemStream) byte() byte {
	if s.pos >= len(s.data) {
		s.pos++
		return 0
	}
	s.pos++
	return s.data[s.pos-1]
}

func (s *itemStream) more() bool { return s.pos < len(s.data) }

// operand is a value at or next to a prefix boundary: ±16^k plus or
// minus a little, or an extreme of int64.
func (s *itemStream) operand() int64 {
	k := s.byte()
	switch k % 18 {
	case 16:
		return math.MaxInt64 - int64(s.byte()%4)
	case 17:
		return math.MinInt64 + int64(s.byte()%4)
	}
	v := int64(1)<<(4*(k%18)) + int64(int8(s.byte()))%3
	if k&0x80 != 0 {
		v = -v
	}
	return v
}

// label is one of a small pool of names, so that references land before
// and after definitions, some names are defined twice and some never.
func (s *itemStream) label() string { return "L" + strconv.Itoa(int(s.byte()%10)) }

// builderPair drives the reference builder and Builder, the latter by
// the names the text assembler gives it, with the same calls.
type builderPair struct {
	ref   *refBuilder
	b     *Builder
	names *labelNames
}

// run applies the calls the stream decodes to both builders and
// returns the first error each reports while they are made.
func (p builderPair) run(s *itemStream) (refErr, err error) {
	for s.more() {
		switch s.byte() % 11 {
		case 0:
			fn, v := isa.Function(s.byte()%16), s.operand()
			p.ref.Fn(fn, v)
			p.b.Fn(fn, v)
		case 1:
			op := isa.Op(uint16(s.byte()) | uint16(s.byte()&0x3)<<8)
			p.ref.Op(op)
			p.b.Op(op)
		case 2:
			fn, l := isa.Function(s.byte()%16), s.label()
			p.ref.Branch(fn, l)
			p.b.Branch(fn, p.names.ref(l, 0))
		case 3:
			fn, la, lb := isa.Function(s.byte()%16), s.label(), s.label()
			p.ref.Diff(fn, la, lb)
			p.b.Diff(fn, p.names.ref(la, 0), p.names.ref(lb, 0))
		case 4:
			fn, l := isa.Function(s.byte()%16), s.label()
			p.ref.Abs(fn, l)
			p.b.Abs(fn, p.names.ref(l, 0))
		case 5:
			l := s.label()
			p.ref.Ldpi(l)
			p.b.Ldpi(p.names.ref(l, 0))
		case 6:
			// Up to 511 bytes, enough to carry branches across the
			// 16- and 256-byte prefix edges.
			n := int(s.byte()) | int(s.byte()&1)<<8
			data := make([]byte, n)
			for i := range data {
				data[i] = byte(i) ^ 0x5a
			}
			p.ref.Bytes(data)
			p.b.Bytes(append([]byte(nil), data...))
		case 7:
			p.ref.Align()
			p.b.Align()
		case 8:
			line := int(s.byte())
			p.ref.Mark(line)
			p.b.Mark(line)
		case 9:
			l := s.label()
			refErr, err = p.ref.Label(l), p.names.define(l)
			if refErr != nil || err != nil {
				return refErr, err
			}
		case 10:
			v := s.operand()
			p.ref.Word(v)
			p.b.Word(v)
		}
	}
	return nil, nil
}

// differ returns why the two builders disagree on the program a fuzz
// input decodes to, or "" when they agree.
func differ(data []byte) string {
	wordBytes := 4
	if len(data) > 0 && data[0]&1 != 0 {
		wordBytes = 2
	}
	s := &itemStream{data: data, pos: 1}
	b := NewBuilder(wordBytes)
	// The builder under test has built another program first, one that
	// Assemble refuses, and been reset, as a builder compiling one
	// program after another is.
	l := b.NewLabel()
	b.Define(l)
	b.Bytes([]byte{1, 2, 3})
	b.Define(l)
	b.Branch(isa.FnJ, b.NewLabel())
	if _, err := b.Assemble(); err == nil {
		return "a program that defines a label twice assembles"
	}
	b.Reset()
	p := builderPair{ref: newRefBuilder(wordBytes), b: b, names: newLabelNames(b)}
	refErr, err := p.run(s)
	if refErr != nil || err != nil {
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			return "defining a label: reference " + errText(refErr) + ", builder " + errText(err)
		}
		return ""
	}
	want, refErr := p.ref.Assemble()
	got, labels, err := p.names.assemble()
	switch {
	case refErr != nil || err != nil:
		if refErr == nil || err == nil || refErr.Error() != err.Error() {
			return "assembling: reference " + errText(refErr) + ", builder " + errText(err)
		}
	case !reflect.DeepEqual(got.Code, want.Code):
		return "code differs:\nreference " + strconv.Quote(string(want.Code)) + "\nbuilder   " + strconv.Quote(string(got.Code))
	case !reflect.DeepEqual(got.Marks, want.Marks):
		return "marks differ"
	case !reflect.DeepEqual(labels, want.Labels):
		return "label offsets differ"
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "no error"
	}
	return strconv.Quote(err.Error())
}

// programSeed is fuzz input that decodes to a program that assembles:
// each label defined once, those used but not defined yet defined at
// the end, so that most of its calls reach Assemble.
func programSeed(rng *rand.Rand) []byte {
	seed := []byte{byte(rng.Intn(2))}
	var defined [10]bool
	for n := 10 + rng.Intn(60); n > 0; n-- {
		kind := byte(rng.Intn(11))
		switch kind {
		case 9:
			l := byte(rng.Intn(10))
			if defined[l] {
				continue
			}
			defined[l] = true
			seed = append(seed, kind, l)
		case 7:
			seed = append(seed, kind)
		case 5, 8:
			seed = append(seed, kind, byte(rng.Intn(256)))
		case 2, 4:
			seed = append(seed, kind, byte(rng.Intn(16)), byte(rng.Intn(10)))
		case 3:
			seed = append(seed, kind, byte(rng.Intn(16)), byte(rng.Intn(10)), byte(rng.Intn(10)))
		case 0:
			seed = append(seed, kind, byte(rng.Intn(16)), byte(rng.Intn(256)), byte(rng.Intn(256)))
		default: // 1, 6, 10: two argument bytes
			seed = append(seed, kind, byte(rng.Intn(256)), byte(rng.Intn(256)))
		}
	}
	for l := range defined {
		if !defined[l] {
			seed = append(seed, 9, byte(l))
		}
	}
	return seed
}

// FuzzBuilderDifferential holds Builder, with its numbered labels named
// the way the text assembler names them, to the builder it replaced:
// any sequence of calls — every item kind, labels used before and after
// their definition, defined twice or never, operands at the edges where
// another prefix byte is needed, alignment, data and marks — encodes to
// the same code and marks with the labels at the same offsets, or fails
// with the same error.
func FuzzBuilderDifferential(f *testing.F) {
	f.Add([]byte{0, 9, 0, 0, 3, 2, 3, 0, 1, 9, 1, 2, 0, 1})
	f.Add([]byte{1, 2, 5, 3, 6, 0xff, 1, 9, 3, 7, 5, 3, 8, 12, 0, 7, 3})
	f.Add([]byte{0, 2, 5, 4, 9, 4, 9, 4})
	f.Add([]byte{0, 3, 1, 1, 2, 9, 1, 10, 0x91, 0, 7, 4, 0, 1})
	rng := rand.New(rand.NewSource(424))
	for i := 0; i < 32; i++ {
		seed := make([]byte, 8+rng.Intn(120))
		rng.Read(seed)
		f.Add(seed)
		f.Add(programSeed(rng))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if why := differ(data); why != "" {
			t.Fatal(why)
		}
	})
}

// TestItemSize pins the builder's item at 24 bytes: a compile holds one
// per instruction and source mark, and the item's size is most of what
// generating code allocates.
func TestItemSize(t *testing.T) {
	if got := unsafe.Sizeof(item{}); got != 24 {
		t.Errorf("item is %d bytes, want 24", got)
	}
}

// TestBuilderLabelErrors: generated code that defines a label twice or
// never gets an error from Assemble, not a panic.
func TestBuilderLabelErrors(t *testing.T) {
	b := NewBuilder(4)
	l := b.NewLabel()
	b.Define(l)
	b.Fn(isa.FnLdc, 1)
	b.Define(l)
	if _, err := b.Assemble(); err == nil || err.Error() != "asm: label 0 defined twice" {
		t.Errorf("label defined twice: %v", err)
	}
	b = NewBuilder(4)
	b.Branch(isa.FnJ, b.NewLabel())
	_, err := b.Assemble()
	var undef *undefinedLabelError
	if !errors.As(err, &undef) || undef.label != 0 {
		t.Errorf("label never defined: %v", err)
	}
}

// TestUndefinedLabelLine: the text assembler names an undefined label
// with the line that first used it.
func TestUndefinedLabelLine(t *testing.T) {
	_, err := Assemble("start:\n\tldc 1\n\tj nowhere\n\tcj nowhere\n", 4)
	if err == nil || err.Error() != `asm: undefined label "nowhere" (line 3)` {
		t.Errorf("got %v", err)
	}
}
