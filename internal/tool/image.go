package tool

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"transputer/internal/core"
	"transputer/internal/isa"
)

// Image container format (".tix"): a small binary envelope around a
// core.Image so compiled programs can be stored and loaded by the
// tools.  TIX2 appends an optional source map (offset/line pairs, for
// the sampling profiler) after the code; TIX1 files remain readable.
var (
	tixMagic1 = [4]byte{'T', 'I', 'X', '1'}
	tixMagic2 = [4]byte{'T', 'I', 'X', '2'}
)

type tixHeader struct {
	Magic     [4]byte
	Entry     int32
	DataBytes int32
	WsBelow   int32
	WsAbove   int32
	CodeLen   int32
}

// EncodeImage serialises an image.  Images without a source map encode
// as TIX1 for compatibility with older readers.
func EncodeImage(img core.Image) []byte {
	var buf bytes.Buffer
	h := tixHeader{
		Magic:     tixMagic1,
		Entry:     int32(img.Entry),
		DataBytes: int32(img.DataBytes),
		WsBelow:   int32(img.WsBelow),
		WsAbove:   int32(img.WsAbove),
		CodeLen:   int32(len(img.Code)),
	}
	if len(img.Marks) > 0 {
		h.Magic = tixMagic2
	}
	binary.Write(&buf, binary.LittleEndian, h)
	buf.Write(img.Code)
	if len(img.Marks) > 0 {
		binary.Write(&buf, binary.LittleEndian, int32(len(img.Marks)))
		for _, mk := range img.Marks {
			binary.Write(&buf, binary.LittleEndian, int32(mk.Offset))
			binary.Write(&buf, binary.LittleEndian, int32(mk.Line))
		}
	}
	return buf.Bytes()
}

// DecodeImage parses a serialised image.
func DecodeImage(data []byte) (core.Image, error) {
	var h tixHeader
	r := bytes.NewReader(data)
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return core.Image{}, fmt.Errorf("tix: short header: %w", err)
	}
	v2 := h.Magic == tixMagic2
	if h.Magic != tixMagic1 && !v2 {
		return core.Image{}, fmt.Errorf("tix: bad magic %q", h.Magic[:])
	}
	if !v2 && int(h.CodeLen) != r.Len() {
		return core.Image{}, fmt.Errorf("tix: code length %d does not match payload %d", h.CodeLen, r.Len())
	}
	if v2 && int(h.CodeLen) > r.Len() {
		return core.Image{}, fmt.Errorf("tix: code length %d exceeds payload %d", h.CodeLen, r.Len())
	}
	code := make([]byte, h.CodeLen)
	if _, err := r.Read(code); err != nil && h.CodeLen > 0 {
		return core.Image{}, err
	}
	img := core.Image{
		Code:      code,
		Entry:     int(h.Entry),
		DataBytes: int(h.DataBytes),
		WsBelow:   int(h.WsBelow),
		WsAbove:   int(h.WsAbove),
	}
	if v2 {
		var n int32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return core.Image{}, fmt.Errorf("tix: short source map: %w", err)
		}
		if n < 0 || int(n) > r.Len()/8 {
			return core.Image{}, fmt.Errorf("tix: bad source map count %d", n)
		}
		img.Marks = make([]isa.SourceMark, n)
		for i := range img.Marks {
			var off, ln int32
			binary.Read(r, binary.LittleEndian, &off)
			if err := binary.Read(r, binary.LittleEndian, &ln); err != nil {
				return core.Image{}, fmt.Errorf("tix: short source map: %w", err)
			}
			img.Marks[i] = isa.SourceMark{Offset: int(off), Line: int(ln)}
		}
	}
	return img, nil
}

// WriteImage stores an image at path.
func WriteImage(path string, img core.Image) error {
	return os.WriteFile(path, EncodeImage(img), 0o644)
}

// ReadImage loads an image from path.
func ReadImage(path string) (core.Image, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return core.Image{}, err
	}
	return DecodeImage(data)
}

// LoadAny loads a program: source (.occ/.tasm) or prebuilt image
// (.tix).
func LoadAny(path string, wordBytes int) (core.Image, error) {
	if strings.ToLower(filepath.Ext(path)) == ".tix" {
		return ReadImage(path)
	}
	return LoadProgram(path, wordBytes)
}
