package core

import (
	"testing"

	"vxml/internal/skeleton"
)

func TestMergeRowsDuplicates(t *testing.T) {
	rows := []Row{
		{Occ: []int64{1, 5}, Run: 1, Mult: 2},
		{Occ: []int64{1, 5}, Run: 1, Mult: 3},
	}
	got := mergeRows(rows)
	if len(got) != 1 || got[0].Mult != 5 {
		t.Errorf("merged = %+v", got)
	}
}

func TestMergeRowsContiguousRuns(t *testing.T) {
	rows := []Row{
		{Occ: []int64{7, 0}, Run: 3, Mult: 1},
		{Occ: []int64{7, 3}, Run: 2, Mult: 1},
	}
	got := mergeRows(rows)
	if len(got) != 1 || got[0].Run != 5 {
		t.Errorf("merged = %+v", got)
	}
	// Different multiplicities must not merge runs.
	rows = []Row{
		{Occ: []int64{7, 0}, Run: 3, Mult: 1},
		{Occ: []int64{7, 3}, Run: 2, Mult: 2},
	}
	if got := mergeRows(rows); len(got) != 2 {
		t.Errorf("merged different mult = %+v", got)
	}
	// Different leading columns must not merge.
	rows = []Row{
		{Occ: []int64{7, 0}, Run: 3, Mult: 1},
		{Occ: []int64{8, 3}, Run: 2, Mult: 1},
	}
	if got := mergeRows(rows); len(got) != 2 {
		t.Errorf("merged different ancestors = %+v", got)
	}
}

func TestNormalizeCol(t *testing.T) {
	seg := &Segment{
		Classes: []skeleton.ClassID{1, 2},
		Rows:    []Row{{Occ: []int64{0, 10}, Run: 3, Mult: 2}},
	}
	seg.normalizeCol(1)
	if len(seg.Rows) != 3 {
		t.Fatalf("rows = %+v", seg.Rows)
	}
	for i, r := range seg.Rows {
		if r.Occ[1] != int64(10+i) || r.Run != 1 || r.Mult != 2 {
			t.Errorf("row %d = %+v", i, r)
		}
	}
	// Normalizing a non-trailing column is a no-op.
	seg2 := &Segment{
		Classes: []skeleton.ClassID{1, 2},
		Rows:    []Row{{Occ: []int64{0, 10}, Run: 3, Mult: 1}},
	}
	seg2.normalizeCol(0)
	if len(seg2.Rows) != 1 {
		t.Errorf("non-trailing normalize changed rows: %+v", seg2.Rows)
	}
}

func TestDropColumnFoldsRunIntoMult(t *testing.T) {
	tab := &Table{
		Vars: []string{"$a", "$b"},
		Segment: Segment{
			Classes: []skeleton.ClassID{1, 2},
			Rows: []Row{
				{Occ: []int64{0, 10}, Run: 4, Mult: 1},
				{Occ: []int64{1, 20}, Run: 2, Mult: 3},
			},
		},
	}
	tab.dropColumn(1)
	if len(tab.Vars) != 1 || tab.Vars[0] != "$a" {
		t.Fatalf("vars = %v", tab.Vars)
	}
	rows := tab.Rows
	if len(rows) != 2 {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Mult != 4 || rows[1].Mult != 6 {
		t.Errorf("mults = %d,%d, want 4,6", rows[0].Mult, rows[1].Mult)
	}
	if tab.NumTuples() != 10 {
		t.Errorf("tuples = %d, want 10", tab.NumTuples())
	}
}

func TestDropMiddleColumnMergesDuplicates(t *testing.T) {
	tab := &Table{
		Vars: []string{"$a", "$b", "$c"},
		Segment: Segment{
			Classes: []skeleton.ClassID{1, 2, 3},
			Rows: []Row{
				{Occ: []int64{0, 5, 10}, Run: 2, Mult: 1},
				{Occ: []int64{0, 6, 12}, Run: 1, Mult: 1},
			},
		},
	}
	tab.dropColumn(1)
	rows := tab.Rows
	// (0,10 run2) and (0,12 run1) are contiguous: merge into (0,10 run3).
	if len(rows) != 1 || rows[0].Run != 3 {
		t.Errorf("rows = %+v", rows)
	}
}

func TestTableCountsAndString(t *testing.T) {
	tab := &Table{
		Vars: []string{"$x"},
		Segment: Segment{
			Classes: []skeleton.ClassID{1},
			Rows:    []Row{{Occ: []int64{0}, Run: 5, Mult: 2}},
		},
	}
	if tab.Col("$x") != 0 || tab.Col("$y") != -1 {
		t.Error("Col lookup broken")
	}
	if len(tab.Rows) != 1 || tab.NumTuples() != 10 {
		t.Errorf("counts = %d rows, %d tuples", len(tab.Rows), tab.NumTuples())
	}
	if tab.String() == "" {
		t.Error("empty String")
	}
}

func TestSpanOps(t *testing.T) {
	u := mergeSpans([]span{{0, 3}, {2, 5}, {10, 2}, {20, 1}})
	want := []span{{0, 7}, {10, 2}, {20, 1}}
	if len(u) != len(want) {
		t.Fatalf("merge = %+v", u)
	}
	for i := range want {
		if u[i] != want[i] {
			t.Errorf("merge[%d] = %+v, want %+v", i, u[i], want[i])
		}
	}
	// Filtering a trailing run column clips each run to the spans it meets.
	seg := &Segment{Classes: []skeleton.ClassID{1}, Rows: []Row{{Occ: []int64{5}, Run: 7, Mult: 1}, {Occ: []int64{13}, Run: 1, Mult: 1}}}
	seg.filter(0, u) // rows [5,12) and [13,14)
	wantRows := []Row{{Occ: []int64{5}, Run: 2, Mult: 1}, {Occ: []int64{10}, Run: 2, Mult: 1}}
	if len(seg.Rows) != len(wantRows) {
		t.Fatalf("filtered = %+v", seg.Rows)
	}
	for i, r := range wantRows {
		if got := seg.Rows[i]; got.Occ[0] != r.Occ[0] || got.Run != r.Run {
			t.Errorf("filtered[%d] = %+v, want %+v", i, got, r)
		}
	}
}

func TestSpansFromSorted(t *testing.T) {
	got := spansFromSorted([]int64{1, 2, 2, 3, 7, 9, 10})
	want := []span{{1, 3}, {7, 1}, {9, 2}}
	if len(got) != len(want) {
		t.Fatalf("spans = %+v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spans[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestExistsRunsRegular(t *testing.T) {
	// Two levels: 4 parents with fanouts [2,0,1,3]; children all have
	// one grandchild except those of the last parent.
	l1 := skeleton.NewCursor(skeleton.RunMap{{Parents: 1, Fanout: 2}, {Parents: 1, Fanout: 0}, {Parents: 1, Fanout: 1}, {Parents: 1, Fanout: 3}})
	l2 := skeleton.NewCursor(skeleton.RunMap{{Parents: 3, Fanout: 1}, {Parents: 3, Fanout: 0}})
	got := existsRuns([]*skeleton.Cursor{l1, l2}, 3)
	// Parent 0: children 0,1 -> grandchildren yes. Parent 1: none.
	// Parent 2: child 2 -> grandchild yes. Parent 3: children 3,4,5 -> no.
	want := []span{{0, 1}, {2, 1}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("existsRuns = %+v, want %+v", got, want)
	}
}
