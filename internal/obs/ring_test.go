package obs

import (
	"slices"
	"strconv"
	"testing"
)

// TestRingWrapOrder: every bounded ring keeps the last capacity items it
// was given and lists them newest first, before and after it wraps.
func TestRingWrapOrder(t *testing.T) {
	type ops struct {
		push func(i int)
		list func() []int
	}
	rings := []struct {
		name string
		make func(capacity int) ops
	}{
		{"SlowRing", func(capacity int) ops {
			r := NewSlowRing(capacity)
			return ops{
				push: func(i int) { r.Record(SlowQueryRecord{ID: int64(i)}) },
				list: func() (ids []int) {
					for _, rec := range r.List() {
						ids = append(ids, int(rec.ID))
					}
					return ids
				},
			}
		}},
		{"TraceRing", func(capacity int) ops {
			r := NewTraceRing(capacity)
			return ops{
				push: func(i int) { r.keep(TraceRecord{Spans: i}) },
				list: func() (ids []int) {
					for _, rec := range r.List() {
						ids = append(ids, rec.Spans)
					}
					return ids
				},
			}
		}},
		{"PanicRing", func(capacity int) ops {
			r := NewPanicRing(capacity)
			return ops{
				push: func(i int) { r.Record(PanicRecord{Value: strconv.Itoa(i)}) },
				list: func() (ids []int) {
					for _, rec := range r.List() {
						id, _ := strconv.Atoi(rec.Value)
						ids = append(ids, id)
					}
					return ids
				},
			}
		}},
	}
	for _, rg := range rings {
		for capacity := 1; capacity <= 3; capacity++ {
			r := rg.make(capacity)
			var want []int
			for n := 1; n <= 2*capacity+1; n++ {
				r.push(n)
				want = append([]int{n}, want...)
				if len(want) > capacity {
					want = want[:capacity]
				}
				if got := r.list(); !slices.Equal(got, want) {
					t.Errorf("%s(cap %d) after %d pushes: List = %v, want %v", rg.name, capacity, n, got, want)
				}
			}
		}
	}
}
