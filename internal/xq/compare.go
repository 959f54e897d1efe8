package xq

import (
	"strconv"
	"strings"
)

// CompareValues compares two text values, numerically when both parse as
// numbers (scientific data compares magnitudes: "9" < "40"), otherwise
// lexicographically. It returns -1, 0 or 1.
func CompareValues(a, b string) int { return NewBound(b).Compare(a) }

// Satisfies reports whether "a op b" holds under CompareValues semantics.
// Equality accepts exact string equality or numeric equality ("40" =
// "40.0" for numeric data).
func Satisfies(a string, op CmpOp, b string) bool { return NewBound(b).Holds(a, op) }

// Bound is the constant side of a comparison, read once: a selection
// compares every value it scans against one constant, so it takes the
// constant's numeric reading once per operation, not once per value. A
// non-numeric constant compares every value bytewise without parsing it.
type Bound struct {
	text  string
	num   float64
	isNum bool
}

// NewBound reads the constant b of comparisons "a op b".
func NewBound(b string) Bound {
	f, ok := number(b)
	return Bound{text: b, num: f, isNum: ok}
}

// Compare is CompareValues(a, b) for the bound's constant b.
func (b Bound) Compare(a string) int {
	if b.isNum {
		if fa, ok := number(a); ok {
			switch {
			case fa < b.num:
				return -1
			case fa > b.num:
				return 1
			}
			return 0
		}
	}
	// Not strings.Compare: its parameters escape, which would make every
	// caller's string(val) allocate.
	switch {
	case a == b.text:
		return 0
	case a < b.text:
		return -1
	}
	return 1
}

// Holds is Satisfies(a, op, b) for the bound's constant b.
func (b Bound) Holds(a string, op CmpOp) bool {
	switch op {
	case OpEq:
		return a == b.text || b.Compare(a) == 0
	case OpNe:
		return a != b.text && b.Compare(a) != 0
	case OpLt:
		return b.Compare(a) < 0
	case OpLe:
		return b.Compare(a) <= 0
	case OpGt:
		return b.Compare(a) > 0
	case OpGe:
		return b.Compare(a) >= 0
	}
	return false
}

// number reads a value as the comparison rule does: its TrimSpace'd text
// through ParseFloat. Text that is empty, or whose first byte cannot start
// a Go float (a digit, a sign, a point, or the i/n of "inf" and "nan"), is
// turned away before ParseFloat, whose error would allocate.
func number(s string) (float64, bool) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '+', c == '-', c == '.', c == 'i', c == 'I', c == 'n', c == 'N':
	default:
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}
