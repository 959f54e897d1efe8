// Package core implements the paper's graph-reduction evaluation of XQ
// queries over vectorized XML data (§4): instantiation tables play the
// role of extended vectors, reduce steps (projection, selection, join)
// evaluate one query-graph edge collection-at-a-time scanning each needed
// data vector once, and the result is emitted as a new skeleton + vector
// set with stepwise compression and without decompressing the input.
//
// Variable instances are identified by occurrence index — the rank of the
// instance among all instances of its path class in document order — so a
// text instance's occurrence is exactly its data-vector position (see
// internal/skeleton). Tables keep the paper's cardinality annotations as
// runs: the trailing column of a row may cover a range of consecutive
// occurrences, which keeps highly regular data (one row covering ten
// million table rows) compact through structure-only steps.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"vxml/internal/skeleton"
)

// Row is one entry of an instantiation table. Occ holds one occurrence
// index per table column; the last column covers the Run consecutive
// occurrences [Occ[last], Occ[last]+Run). Mult is the tuple multiplicity
// contributed by dropped bound variables (the paper's card).
type Row struct {
	Occ  []int64
	Run  int64
	Mult int64
}

// Segment is a table's rows with one class per column. A column bound
// through '//' or '*' can range over several classes: it is then a
// class-set column, Classes[col] == skeleton.NoClass, and each row's entry
// carries its class (see tagOcc). Every other column is single-class and
// its entries are plain occurrences.
type Segment struct {
	Classes []skeleton.ClassID
	Rows    []Row
}

// occBits is the width of the occurrence in a class-set column's entry,
// which packs the row's class above it: tagOcc(c, occ) = c<<occBits | occ.
// Runs, merges and spans therefore work on such entries unchanged (a run
// never leaves its class), and entries sort by class, then occurrence.
// Classes must stay below 1<<(63-occBits) and counts below 1<<occBits
// (Engine.setClass checks).
const occBits = 40

func tagOcc(c skeleton.ClassID, occ int64) int64 { return int64(c)<<occBits | occ }

// at returns the class and occurrence of column col's entry v.
func (s *Segment) at(col int, v int64) (skeleton.ClassID, int64) {
	if c := s.Classes[col]; c != skeleton.NoClass {
		return c, v
	}
	return skeleton.ClassID(v >> occBits), v & (1<<occBits - 1)
}

// entry encodes occurrence occ of class c for column col: tagged in a
// class-set column, plain otherwise.
func (s *Segment) entry(col int, c skeleton.ClassID, occ int64) int64 {
	if s.Classes[col] == skeleton.NoClass {
		return tagOcc(c, occ)
	}
	return occ
}

// classesOf returns the distinct classes of column col, ascending.
func (s *Segment) classesOf(col int) []skeleton.ClassID {
	if c := s.Classes[col]; c != skeleton.NoClass {
		return []skeleton.ClassID{c}
	}
	var out []skeleton.ClassID
	for _, r := range s.Rows {
		out = append(out, skeleton.ClassID(r.Occ[col]>>occBits))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// rowKey is a row's index with its entry in one column.
type rowKey struct {
	entry int64
	row   int
}

// byEntry returns the keys of the rows in column col, sorted by entry,
// then row: a class-set column's classes come out contiguous, each in
// occurrence order.
func (s *Segment) byEntry(col int) []rowKey {
	keys := make([]rowKey, len(s.Rows))
	for i, r := range s.Rows {
		keys[i] = rowKey{r.Occ[col], i}
	}
	slices.SortFunc(keys, func(a, b rowKey) int { return cmp.Or(cmp.Compare(a.entry, b.entry), cmp.Compare(a.row, b.row)) })
	return keys
}

// filter keeps only the entries of column col that fall in the sorted
// keep spans, splitting run rows as needed. Each row binary-searches the
// spans, so the cost follows the rows and the spans they meet.
func (s *Segment) filter(col int, keep []span) {
	last := col == len(s.Classes)-1
	var rows []Row
	for _, r := range s.Rows {
		lo, n := r.Occ[col], int64(1)
		if last {
			n = r.Run
		}
		i, _ := slices.BinarySearchFunc(keep, lo, func(k span, v int64) int { return cmp.Compare(k.Start+k.Count, v+1) })
		for ; i < len(keep) && keep[i].Start < lo+n; i++ {
			if !last {
				rows = append(rows, r) // one keep decision per scalar occurrence
				break
			}
			a, b := max(keep[i].Start, lo), min(keep[i].Start+keep[i].Count, lo+n)
			occ := slices.Clone(r.Occ)
			occ[col] = a
			rows = append(rows, Row{Occ: occ, Run: b - a, Mult: r.Mult})
		}
	}
	s.Rows = mergeRows(rows)
}

// Table is an instantiation table: an ordered set of variables (columns)
// and their rows.
type Table struct {
	Vars []string
	Segment
}

// Col returns the column index of a variable, or -1.
func (t *Table) Col(v string) int {
	for i, name := range t.Vars {
		if name == v {
			return i
		}
	}
	return -1
}

// NumTuples returns the number of logical tuples (expanding runs and
// multiplicities).
func (t *Table) NumTuples() int64 {
	var n int64
	for _, r := range t.Rows {
		n += r.Run * r.Mult
	}
	return n
}

// String renders the table for debugging.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "table(%s) classes=%v rows=%d\n", strings.Join(t.Vars, ","), t.Classes, len(t.Rows))
	for i, r := range t.Rows {
		if i >= 20 {
			fmt.Fprintf(&b, "  ... %d more\n", len(t.Rows)-20)
			break
		}
		fmt.Fprintf(&b, "  occ=%v run=%d mult=%d\n", r.Occ, r.Run, r.Mult)
	}
	return b.String()
}

// normalizeCol ensures the given column holds a single scalar occurrence
// per row by expanding trailing runs when col is the last column. Columns
// other than the last are scalar by construction.
func (s *Segment) normalizeCol(col int) {
	last := len(s.Classes) - 1
	if col != last {
		return
	}
	needs := false
	for _, r := range s.Rows {
		if r.Run > 1 {
			needs = true
			break
		}
	}
	if !needs {
		return
	}
	out := make([]Row, 0, len(s.Rows))
	for _, r := range s.Rows {
		if r.Run <= 1 {
			out = append(out, r)
			continue
		}
		for i := int64(0); i < r.Run; i++ {
			occ := make([]int64, len(r.Occ))
			copy(occ, r.Occ)
			occ[last] += i
			out = append(out, Row{Occ: occ, Run: 1, Mult: r.Mult})
		}
	}
	s.Rows = out
}

// dropColumn removes column col from t, folding run/multiplicity
// semantics: dropping a trailing run column multiplies Mult by Run;
// identical adjacent rows merge (their multiplicities add, or their runs
// merge when contiguous on the new trailing column). Dropping the only
// column folds everything into a single multiplicity row.
func (t *Table) dropColumn(col int) {
	last := len(t.Vars) - 1
	t.Vars = append(t.Vars[:col], t.Vars[col+1:]...)
	for i := range t.Rows {
		r := &t.Rows[i]
		if col == last {
			r.Mult *= r.Run
			r.Run = 1
		}
		r.Occ = append(r.Occ[:col], r.Occ[col+1:]...)
	}
	t.Classes = append(t.Classes[:col], t.Classes[col+1:]...)
	t.Rows = mergeRows(t.Rows)
}

// mergeRows merges adjacent rows that are identical (multiplicities add)
// or contiguous on the trailing column with equal other columns (runs
// concatenate, only when multiplicities are equal).
func mergeRows(rows []Row) []Row {
	if len(rows) == 0 {
		return rows
	}
	out := rows[:0]
	for _, r := range rows {
		if len(out) > 0 {
			p := &out[len(out)-1]
			if slices.Equal(p.Occ, r.Occ) && p.Run == r.Run {
				p.Mult += r.Mult
				continue
			}
			if p.Mult == r.Mult && contiguous(p, r) {
				p.Run += r.Run
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// contiguous reports whether r directly continues p's trailing run with
// identical non-trailing columns.
func contiguous(p *Row, r Row) bool {
	n := len(p.Occ)
	if n == 0 || n != len(r.Occ) {
		return false
	}
	for i := 0; i < n-1; i++ {
		if p.Occ[i] != r.Occ[i] {
			return false
		}
	}
	return p.Occ[n-1]+p.Run == r.Occ[n-1]
}
