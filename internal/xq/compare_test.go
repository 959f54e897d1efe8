package xq

import (
	"strconv"
	"strings"
	"testing"
)

// refCompare is the comparison rule written out plainly: numeric when
// both TrimSpace'd sides parse with ParseFloat, bytewise otherwise.
func refCompare(a, b string) int {
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA == nil && errB == nil {
		switch {
		case fa < fb:
			return -1
		case fa > fb:
			return 1
		}
		return 0
	}
	return strings.Compare(a, b)
}

func refSatisfies(a string, op CmpOp, b string) bool {
	switch op {
	case OpEq:
		return a == b || refCompare(a, b) == 0
	case OpNe:
		return a != b && refCompare(a, b) != 0
	case OpLt:
		return refCompare(a, b) < 0
	case OpLe:
		return refCompare(a, b) <= 0
	case OpGt:
		return refCompare(a, b) > 0
	case OpGe:
		return refCompare(a, b) >= 0
	}
	return false
}

// FuzzCompareValues: CompareValues, Satisfies and a Bound read once agree
// with the plain rule on every pair of values and every operator.
func FuzzCompareValues(f *testing.F) {
	seeds := []string{" 40", "40.0", "+Inf", "infinity", "NaN", "nan", "0x1p3", ".5", "-0", "", " ", "_1", "Federal", "dut", " 40"}
	for _, a := range seeds {
		for _, b := range seeds {
			f.Add(a, b)
		}
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		if got, want := CompareValues(a, b), refCompare(a, b); got != want {
			t.Fatalf("CompareValues(%q, %q) = %d, want %d", a, b, got, want)
		}
		bd := NewBound(b)
		if got, want := bd.Compare(a), refCompare(a, b); got != want {
			t.Fatalf("NewBound(%q).Compare(%q) = %d, want %d", b, a, got, want)
		}
		for op := OpEq; op <= OpGe; op++ {
			want := refSatisfies(a, op, b)
			if got := Satisfies(a, op, b); got != want {
				t.Fatalf("Satisfies(%q %s %q) = %v, want %v", a, op, b, got, want)
			}
			if got := bd.Holds(a, op); got != want {
				t.Fatalf("NewBound(%q).Holds(%q, %s) = %v, want %v", b, a, op, got, want)
			}
		}
	})
}
