package core

import (
	"cmp"
	"slices"
	"sort"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/xq"
)

// opJoin evaluates an equality (or comparison) edge. Within one table it
// is a row filter: a row survives iff some pair of its left/right values
// satisfies the comparison. Across tables it merges the two instantiation
// tables on the units whose value sets match — the paper's node merge —
// or counts the matches into multiplicities (joinUnits). With
// Options.FilterOnlyJoins, cross-table joins only filter each side (the
// §4.2 literal reading) and pairing happens by cartesian grouping.
func (x *evalContext) opJoin(op qgraph.Op) error {
	lt, lcol, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	rt, rcol, err := x.tableOf(op.RVar)
	if err != nil {
		return err
	}
	if lt != rt && op.Cmp == xq.OpEq {
		return x.equiJoin(op, lt, lcol, rt, rcol)
	}
	// Otherwise the tables go scalar: each row is one unit.
	x.normalizeSeg(&lt.Segment)
	x.normalizeSeg(&rt.Segment)
	l, r := newJoinSide(lt, lcol, op.Path), newJoinSide(rt, rcol, op.RPath)
	lvals, err := x.unitVals(l)
	if err != nil {
		return err
	}
	rvals, err := x.unitVals(r)
	if err != nil {
		return err
	}
	if lt == rt {
		var rows []Row
		for ri, row := range lt.Rows {
			if valsCompatible(lvals[ri], rvals[ri], op.Cmp) {
				rows = append(rows, row)
			}
		}
		lt.Rows = mergeRows(rows)
		return nil
	}
	// Cross-table comparisons are rare and small: check every pair.
	var pairs []pair
	for i := range lvals {
		for j := range rvals {
			if valsCompatible(lvals[i], rvals[j], op.Cmp) {
				pairs = append(pairs, pair{i, j})
			}
		}
	}
	return x.joinUnits(op, l, r, pairs)
}

// unitVals returns the values of each unit of s as strings.
func (x *evalContext) unitVals(s *joinSide) ([][]string, error) {
	vals := make([][]string, s.base[len(s.t.Rows)])
	return vals, x.scanUnits(s, func(u int, val []byte) {
		vals[u] = append(vals[u], string(val))
	})
}

// valsCompatible reports whether some (l, r) value pair satisfies cmp.
func valsCompatible(l, r []string, cmp xq.CmpOp) bool {
	if len(l) == 0 || len(r) == 0 {
		return false
	}
	lmin, lmax := extrema(l)
	rmin, rmax := extrema(r)
	switch cmp {
	case xq.OpEq:
		// Numeric equality ("40" vs "40.0") shows in the extrema.
		if compareValues(lmin, rmax) == 0 || compareValues(lmax, rmin) == 0 {
			return true
		}
		set := make(map[string]bool, len(l))
		for _, v := range l {
			set[v] = true
		}
		return slices.ContainsFunc(r, func(v string) bool { return set[v] })
	case xq.OpNe:
		// Fails only when both sides hold one and the same distinct value.
		return slices.ContainsFunc(l, func(v string) bool { return v != r[0] }) || slices.ContainsFunc(r, func(v string) bool { return v != l[0] })
	case xq.OpLt:
		return compareValues(lmin, rmax) < 0
	case xq.OpLe:
		return compareValues(lmin, rmax) <= 0
	case xq.OpGt:
		return compareValues(lmax, rmin) > 0
	case xq.OpGe:
		return compareValues(lmax, rmin) >= 0
	}
	return false
}

// extrema returns the least and the greatest of vals under compareValues.
func extrema(vals []string) (lo, hi string) {
	lo, hi = vals[0], vals[0]
	for _, v := range vals[1:] {
		if compareValues(v, lo) < 0 {
			lo = v
		}
		if compareValues(v, hi) > 0 {
			hi = v
		}
	}
	return lo, hi
}

// pair is a match of a cross-table join: a unit of each side.
type pair struct{ a, b int }

// joinSide is one table of a cross-table join. Its units are what a match
// pairs: one occurrence of a row's run when the join column is the
// table's trailing one, else the whole row. Units are numbered in row
// order, then run order: the table's for-order.
type joinSide struct {
	t     *Table
	col   int
	path  []xq.Step
	trail bool  // col is the trailing column
	base  []int // row ri's units are [base[ri], base[ri+1])
}

func newJoinSide(t *Table, col int, path []xq.Step) *joinSide {
	s := &joinSide{t: t, col: col, path: path, trail: col == len(t.Classes)-1, base: make([]int, len(t.Rows)+1)}
	for ri := range t.Rows {
		s.base[ri+1] = s.base[ri] + int(s.width(ri))
	}
	return s
}

// width is the number of units of row ri.
func (s *joinSide) width(ri int) int64 {
	if s.trail {
		return s.t.Rows[ri].Run
	}
	return 1
}

// unit returns the row of unit u and u's offset in the row's run.
func (s *joinSide) unit(u int) (int, int64) {
	ri := sort.Search(len(s.t.Rows), func(i int) bool { return s.base[i+1] > u })
	return ri, int64(u - s.base[ri])
}

// scanUnits reads s's join values, one scan per row and chain over the
// row's whole run (pathRes.scan), and calls fn with the value's unit
// (through the chain's cursors) and the value, in one pass over the
// evaluation's readers.
func (x *evalContext) scanUnits(s *joinSide, fn func(u int, val []byte)) error {
	var down []*skeleton.Cursor
	var occ, n int64
	var u0 int
	visit := func(pos int64, val []byte) error {
		u := u0
		if n > 1 {
			u += int(ascendPos(down, pos) - occ)
		}
		fn(u, val)
		return nil
	}
	return x.paths(s.path, true).scan(&s.t.Segment, s.col, nil, func(sr scanRow) error {
		occ, n, u0 = sr.occ, s.width(sr.ri), s.base[sr.ri]
		for i := range sr.chains {
			ch := &sr.chains[i]
			start, count := descendSpan(ch.down, occ, n)
			if count == 0 {
				continue
			}
			x.stats.ValuesScanned += count
			down = ch.down
			if err := sr.rds[ch.slot].Scan(start, count, visit); err != nil {
				return err
			}
		}
		return nil
	})
}

// matcher finds the units of a join's build side holding a value: those
// its scan found the raw value in — key k's are units[i] for i = head[k],
// next[i], ... up to -1 — or those at its vector index's positions.
type matcher struct {
	side                    *joinSide
	keys                    map[string]int
	head, tail, next, units []int
	idx                     *VectorIndex
	down                    []*skeleton.Cursor // the index's chain from the side's column
}

// hashSide reads s's values once and hashes them: one string per
// distinct value, sized for one per unit.
func (x *evalContext) hashSide(s *joinSide) (*matcher, error) {
	n := s.base[len(s.t.Rows)]
	m := &matcher{side: s, keys: make(map[string]int, n), next: make([]int, 0, n), units: make([]int, 0, n)}
	err := x.scanUnits(s, func(u int, val []byte) {
		i := len(m.units)
		if k, ok := m.keys[string(val)]; ok {
			m.next[m.tail[k]], m.tail[k] = i, i
		} else {
			m.keys[string(val)] = len(m.head)
			m.head, m.tail = append(m.head, i), append(m.tail, i)
		}
		m.next, m.units = append(m.next, -1), append(m.units, u)
	})
	return m, err
}

// indexSide returns a matcher over s's vector index, when s is one row
// and its join path one chain from a single-class column to an indexed
// text class (the §6 extension: an index nested-loops join, the plan
// that wins the paper's SQ3 for the tuned relational system).
func (x *evalContext) indexSide(s *joinSide) (*matcher, bool) {
	if len(s.t.Rows) != 1 || s.t.Classes[s.col] == skeleton.NoClass {
		return nil, false
	}
	chains := x.paths(s.path, true).from(s.t.Classes[s.col])
	if len(chains) != 1 {
		return nil, false
	}
	idx, ok := x.e.lookupIndex(chains[0].dst)
	if !ok {
		return nil, false
	}
	x.stats.IndexHits++
	return &matcher{side: s, idx: idx, down: chains[0].down}, true
}

// match appends to dst a pair of probe unit u with each build unit
// holding val.
func (m *matcher) match(dst []pair, u int, val []byte) []pair {
	if m.idx == nil {
		if k, ok := m.keys[string(val)]; ok {
			for i := m.head[k]; i >= 0; i = m.next[i] {
				dst = append(dst, pair{u, m.units[i]})
			}
		}
		return dst
	}
	for _, pos := range m.idx.Positions(xq.OpEq, string(val)) {
		if b := ascendPos(m.down, pos) - m.side.t.Rows[0].Occ[m.side.col]; b >= 0 && b < m.side.width(0) {
			dst = append(dst, pair{u, int(b)})
		}
	}
	return dst
}

// equiJoin evaluates a cross-table equality join, reading each side's
// values once: the later-bound side's are hashed, as raw bytes, to the
// units holding them (or looked up unread in the right side's vector
// index), and the other side's probe them. A pairing join first makes the
// earlier-bound table scalar, its columns becoming middle ones.
func (x *evalContext) equiJoin(op qgraph.Op, lt *Table, lcol int, rt *Table, rcol int) error {
	left, right := newJoinSide(lt, lcol, op.Path), newJoinSide(rt, rcol, op.RPath)
	e, l := left, right
	if indexOfTable(x.tables, rt) < indexOfTable(x.tables, lt) {
		e, l = right, left
	}
	if !x.e.Opts.FilterOnlyJoins && !dies(op, l.t) {
		x.normalizeSeg(&e.t.Segment)
		*e = *newJoinSide(e.t, e.col, e.path)
	}
	probe := left
	m, ok := x.indexSide(right)
	if !ok {
		probe = e
		var err error
		if m, err = x.hashSide(l); err != nil {
			return err
		}
	}
	pairs := make([]pair, 0, probe.base[len(probe.t.Rows)])
	err := x.scanUnits(probe, func(u int, val []byte) {
		pairs = m.match(pairs, u, val)
	})
	if err != nil {
		return err
	}
	return x.joinUnits(op, probe, m.side, pairs)
}

// joinUnits applies a cross-table join's matches: pairs of a unit of a
// and one of b, in any order, possibly repeated. Oriented to pair the
// earlier-bound side e's unit with the later-bound side l's and sorted,
// each distinct match counts once, in for-order. With
// Options.FilterOnlyJoins each side keeps its matched units. If l dies at
// the join it goes, and each matched unit of e has its multiplicity
// scaled by the tuples it matches (a counting semijoin: no run expands).
// Otherwise the tables merge on the pairs into e's slot (mergeUnits).
func (x *evalContext) joinUnits(op qgraph.Op, a, b *joinSide, pairs []pair) error {
	e, l, swap := a, b, indexOfTable(x.tables, b.t) < indexOfTable(x.tables, a.t)
	if swap {
		e, l = b, a
	}
	sortPairs(pairs, swap)
	pairs = slices.Compact(pairs)
	switch {
	case x.e.Opts.FilterOnlyJoins:
		one := func(int) int64 { return 1 }
		e.keep(tally(pairs, one))
		sortPairs(pairs, true)
		l.keep(tally(pairs, one))
	case dies(op, l.t):
		e.keep(tally(pairs, func(u int) int64 {
			ri, _ := l.unit(u)
			r := l.t.Rows[ri]
			return r.Mult * (r.Run / l.width(ri)) // a whole-row unit stands for its run
		}))
		x.stats.RowsProduced += int64(len(e.t.Rows))
		x.tables[indexOfTable(x.tables, l.t)] = nil
		for _, v := range l.t.Vars {
			delete(x.varTabs, v)
		}
	default:
		x.mergeUnits(e, l, pairs)
	}
	return nil
}

// dies reports whether every column of t dies at op.
func dies(op qgraph.Op, t *Table) bool {
	return !slices.ContainsFunc(t.Vars, func(v string) bool { return !slices.Contains(op.DropAfter, v) })
}

// sortPairs sorts pairs by their a unit, then their b unit, after
// swapping each one's units if swap.
func sortPairs(pairs []pair, swap bool) {
	if swap {
		for i, p := range pairs {
			pairs[i] = pair{p.b, p.a}
		}
	}
	byAB := func(p, q pair) int { return cmp.Or(cmp.Compare(p.a, q.a), cmp.Compare(p.b, q.b)) }
	if !slices.IsSortedFunc(pairs, byAB) {
		slices.SortFunc(pairs, byAB)
	}
}

// tally returns the distinct a units of sorted pairs, and the sum of w
// over each one's b units.
func tally(pairs []pair, w func(b int) int64) (units []int, sums []int64) {
	for i, p := range pairs {
		if i == 0 || p.a != pairs[i-1].a {
			units, sums = append(units, p.a), append(sums, 0)
		}
		sums[len(sums)-1] += w(p.b)
	}
	return units, sums
}

// keep rebuilds s's table from the given units, ascending and distinct,
// multiplying the i-th one's multiplicity by mult[i]; the other units
// drop, and mergeRows re-forms the runs.
func (s *joinSide) keep(units []int, mult []int64) {
	rows := make([]Row, 0, len(units))
	arena := make([]int64, 0, len(units)*len(s.t.Classes))
	for i, ri := 0, 0; i < len(units); i++ {
		for s.base[ri+1] <= units[i] {
			ri++
		}
		r := s.t.Rows[ri]
		r.Mult *= mult[i]
		if s.trail {
			at := len(arena)
			arena = append(arena, r.Occ...)
			r.Occ, r.Run = arena[at:len(arena):len(arena)], 1
			r.Occ[s.col] += int64(units[i] - s.base[ri])
		}
		rows = append(rows, r)
	}
	s.t.Rows = mergeRows(rows)
}

// mergeUnits replaces e's and l's tables with their join on the sorted
// pairs, e's columns then l's, in e's slot: rows in for-order. e is
// scalar (each row one unit); an l unit keeps its row's run unless it is
// one occurrence of it, which counts as a run expanded.
func (x *evalContext) mergeUnits(e, l *joinSide, pairs []pair) {
	merged := &Table{
		Vars:    append(slices.Clone(e.t.Vars), l.t.Vars...),
		Segment: Segment{Classes: append(slices.Clone(e.t.Classes), l.t.Classes...)},
	}
	for _, p := range pairs {
		er := e.t.Rows[p.a]
		ri, off := l.unit(p.b)
		lr := l.t.Rows[ri]
		occ := append(append(make([]int64, 0, len(merged.Classes)), er.Occ...), lr.Occ...)
		run := lr.Run
		if l.trail {
			occ[len(occ)-1] += off
			run = 1
		}
		if run < lr.Run {
			x.stats.RunsExpanded++
		}
		merged.Rows = append(merged.Rows, Row{Occ: occ, Run: run, Mult: er.Mult * lr.Mult})
	}
	merged.Rows = mergeRows(merged.Rows)
	x.stats.RowsProduced += int64(len(merged.Rows))
	ei, li := indexOfTable(x.tables, e.t), indexOfTable(x.tables, l.t)
	x.tables[ei], x.tables[li] = merged, nil
	for _, v := range merged.Vars {
		x.varTabs[v] = ei
	}
}
