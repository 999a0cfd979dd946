package tool

import (
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"transputer/internal/core"
	"transputer/internal/isa"
	"transputer/internal/network"
	"transputer/internal/sim"
)

func TestImageRoundTrip(t *testing.T) {
	img := core.Image{
		Code:      []byte{0x40, 0xD1, 0x21, 0xF5},
		Entry:     0,
		DataBytes: 12,
		WsBelow:   32,
		WsAbove:   16,
	}
	got, err := DecodeImage(EncodeImage(img))
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Code) != string(img.Code) || got.Entry != img.Entry ||
		got.DataBytes != img.DataBytes || got.WsBelow != img.WsBelow || got.WsAbove != img.WsAbove {
		t.Errorf("round trip: %+v != %+v", got, img)
	}
}

func TestImageRoundTripProperty(t *testing.T) {
	f := func(code []byte, entry, data uint8) bool {
		img := core.Image{Code: code, Entry: int(entry), DataBytes: int(data), WsBelow: 5, WsAbove: 5}
		got, err := DecodeImage(EncodeImage(img))
		return err == nil && string(got.Code) == string(code) &&
			got.Entry == int(entry) && got.DataBytes == int(data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestImageDecodeErrors(t *testing.T) {
	if _, err := DecodeImage(nil); err == nil {
		t.Error("empty image should fail")
	}
	if _, err := DecodeImage([]byte("XXXXXXXXXXXXXXXXXXXXXXXXXXXX")); err == nil {
		t.Error("bad magic should fail")
	}
	good := EncodeImage(core.Image{Code: []byte{1, 2, 3}})
	if _, err := DecodeImage(good[:len(good)-1]); err == nil {
		t.Error("truncated payload should fail")
	}
}

func TestImageFileIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "prog.tix")
	img := core.Image{Code: []byte{0x40, 0xD1}, WsBelow: 8, WsAbove: 8}
	if err := WriteImage(path, img); err != nil {
		t.Fatal(err)
	}
	got, err := ReadImage(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got.Code) != string(img.Code) {
		t.Error("file round trip corrupted code")
	}
	// LoadAny dispatches on extension.
	got2, err := LoadAny(path, 4)
	if err != nil || string(got2.Code) != string(img.Code) {
		t.Errorf("LoadAny(.tix): %v", err)
	}
}

func TestTranslateProgram(t *testing.T) {
	occSrc := "CHAN c:\nPLACE c AT LINK0OUT:\nc ! 1\n"
	img, err := TranslateProgram(occSrc, ".occ", 4)
	if err != nil || len(img.Code) == 0 {
		t.Errorf("occam translate: %v", err)
	}
	asmSrc := "\tldc 1\n\tstl 1\n\tstopp\n"
	img2, err := TranslateProgram(asmSrc, ".tasm", 4)
	if err != nil || len(img2.Code) == 0 {
		t.Errorf("asm translate: %v", err)
	}
	if _, err := TranslateProgram("x", ".xyz", 4); err == nil {
		t.Error("unknown extension should fail")
	}
	if _, err := TranslateProgram("garbage !!", ".occ", 4); err == nil {
		t.Error("bad occam should fail")
	}
}

func TestLoadProgramFromDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.occ")
	if err := os.WriteFile(path, []byte("CHAN c:\nPLACE c AT LINK0OUT:\nc ! 4\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	img, err := LoadProgram(path, 4)
	if err != nil || len(img.Code) == 0 {
		t.Fatalf("LoadProgram: %v", err)
	}
	if _, err := LoadProgram(filepath.Join(dir, "missing.occ"), 4); err == nil {
		t.Error("missing file should fail")
	}
}

func TestModelConfig(t *testing.T) {
	cfg, err := ModelConfig("t424", 0)
	if err != nil || cfg.WordBits != 32 {
		t.Errorf("t424: %+v %v", cfg, err)
	}
	cfg, err = ModelConfig("T222", 32*1024)
	if err != nil || cfg.WordBits != 16 || cfg.MemBytes != 32*1024 {
		t.Errorf("t222: %+v %v", cfg, err)
	}
	if _, err := ModelConfig("t800", 0); err == nil {
		t.Error("unknown model should fail")
	}
}

// TestRingTopologyEndToEnd builds and runs the shipped netdemo ring
// through the same path the tnet command uses.
func TestRingTopologyEndToEnd(t *testing.T) {
	base := filepath.Join("..", "..", "examples", "netdemo")
	src, err := os.ReadFile(filepath.Join(base, "ring.tnet"))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := network.ParseTopology(string(src))
	if err != nil {
		t.Fatal(err)
	}
	s := network.NewSystem()
	for _, spec := range topo.Transputers {
		cfg, err := ModelConfig(spec.Model, spec.MemBytes)
		if err != nil {
			t.Fatal(err)
		}
		n, err := s.AddTransputer(spec.Name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		img, err := LoadAny(filepath.Join(base, spec.Program), cfg.WordBits/8)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Load(img); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range topo.Connections {
		a, _ := s.Node(c.A)
		b, _ := s.Node(c.B)
		if err := s.Connect(a, c.ALink, b, c.BLink); err != nil {
			t.Fatal(err)
		}
	}
	var host *network.Host
	for _, h := range topo.Hosts {
		n, _ := s.Node(h.Node)
		host, err = s.AttachHost(n, h.Link, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Run(topo.RunLimit)
	if !rep.Settled || host == nil || !host.Done {
		t.Fatalf("ring did not complete: %+v", rep)
	}
	// Three laps around three incrementing workers.
	if len(host.Values) != 1 || host.Values[0] != 9 {
		t.Errorf("ring token = %v, want [9]", host.Values)
	}
	if rep.Time >= 50*sim.Millisecond {
		t.Errorf("ring took %v, expected well under the 50ms limit", rep.Time)
	}
}

// TestImageSourceMapRoundTrip: images carrying a source map encode as
// TIX2 and survive the trip; mark-free images stay TIX1.
func TestImageSourceMapRoundTrip(t *testing.T) {
	img := core.Image{
		Code:    []byte{0x40, 0xD1, 0x21, 0xF5},
		WsBelow: 8, WsAbove: 8,
		Marks: []isa.SourceMark{{Offset: 0, Line: 3}, {Offset: 2, Line: 5}},
	}
	data := EncodeImage(img)
	if string(data[:4]) != "TIX2" {
		t.Errorf("magic = %q, want TIX2", data[:4])
	}
	got, err := DecodeImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Marks) != 2 || got.Marks[1] != (isa.SourceMark{Offset: 2, Line: 5}) {
		t.Errorf("marks = %+v", got.Marks)
	}
	plain := EncodeImage(core.Image{Code: []byte{0x40}})
	if string(plain[:4]) != "TIX1" {
		t.Errorf("mark-free magic = %q, want TIX1", plain[:4])
	}
	if _, err := DecodeImage(data[:len(data)-2]); err == nil {
		t.Error("truncated source map should fail")
	}
}

// TestCompiledSourceMap: the occam compiler emits marks covering its
// code, offset-sorted.
func TestCompiledSourceMap(t *testing.T) {
	img, err := TranslateProgram("CHAN c:\nPLACE c AT LINK0OUT:\nSEQ i = [1 FOR 3]\n  c ! i\n", ".occ", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Marks) == 0 {
		t.Fatal("occam compile produced no source marks")
	}
	for i := 1; i < len(img.Marks); i++ {
		if img.Marks[i].Offset < img.Marks[i-1].Offset {
			t.Fatalf("marks not sorted: %+v", img.Marks)
		}
	}
	for _, mk := range img.Marks {
		if mk.Line < 1 || mk.Line > 4 {
			t.Errorf("mark line %d outside the 4-line program", mk.Line)
		}
		if mk.Offset < 0 || mk.Offset > len(img.Code) {
			t.Errorf("mark offset %d outside code", mk.Offset)
		}
	}
}
