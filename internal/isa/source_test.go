package isa

import "testing"

func TestSourceLine(t *testing.T) {
	marks := []SourceMark{{Offset: 0, Line: 3}, {Offset: 10, Line: 7}, {Offset: 20, Line: 9}}
	cases := []struct{ off, want int }{
		{0, 3}, {9, 3}, {10, 7}, {19, 7}, {20, 9}, {999, 9},
		{-1, 0}, {1000, 0}, // outside the 1000-byte image
	}
	for _, c := range cases {
		if got := SourceLine(marks, 1000, c.off); got != c.want {
			t.Errorf("SourceLine(%d) = %d, want %d", c.off, got, c.want)
		}
	}
	if got := SourceLine(nil, 1000, 5); got != 0 {
		t.Errorf("SourceLine with no marks = %d, want 0", got)
	}
	if got := SourceLine(marks[1:], 1000, 5); got != 0 {
		t.Errorf("SourceLine before the first mark = %d, want 0", got)
	}
}
