package isa

// SourceMark is one entry of a code image's source map: the code from
// Offset up to the next mark's offset derives from source line Line.
// A source map is a slice of marks sorted by offset; the compiler and
// the assembler emit it, the TIX2 container carries it, and the
// profiler, the flow tracer and the deadlock watchdog read it through
// SourceLine.
type SourceMark struct {
	Offset int
	Line   int
}

// SourceLine returns the source line covering byte offset off of a
// codeLen-byte image, the line of the last mark at or below off, or 0
// when off lies outside the image or before the first mark.
func SourceLine(marks []SourceMark, codeLen, off int) int {
	if off < 0 || off >= codeLen {
		return 0
	}
	lo, hi := 0, len(marks)
	for lo < hi {
		mid := (lo + hi) / 2
		if marks[mid].Offset <= off {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return 0
	}
	return marks[lo-1].Line
}
