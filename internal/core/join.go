package core

import (
	"sort"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/xq"
)

// rowRef addresses one row of a table.
type rowRef struct {
	seg, row int
}

// rowVals is the value set reachable from one row via the join path,
// with min/max under compareValues for inequality joins.
type rowVals struct {
	ref      rowRef
	vals     []string
	min, max string
}

// gatherVals computes, per row of t, the values reachable from column col
// via steps (existential set semantics). The column is normalized to
// scalars first: each row contributes one variable instance. Within each
// chain the per-row scans fan out across the engine's worker pool — every
// row's value slot is written by exactly one goroutine, chains stay in
// order, and scan counters merge in chunk order, so the gathered values
// are identical to a serial pass. Each chunk reads its rows, which come
// in document order, through its own reader.
func (x *evalContext) gatherVals(t *Table, col int, steps []xq.Step, op qgraph.Op) ([]rowVals, error) {
	var out []rowVals
	nworkers := x.e.workers()
	for si, seg := range t.Segs {
		x.normalizeSeg(seg)
		chains := x.selChains(seg.Classes[col], qgraph.Op{Path: steps}, true)
		perRow := make([]rowVals, len(seg.Rows))
		for ri := range seg.Rows {
			perRow[ri].ref = rowRef{si, ri}
		}
		for _, sc := range chains {
			vec, err := x.vectorFor(sc.text)
			if err != nil {
				return nil, err
			}
			nch := rowChunks(nworkers, len(seg.Rows))
			scannedByChunk := make([]int64, nch)
			err = parallelFor(x.ctx, nworkers, nch, func(ci int) error {
				rd := x.newReader(sc.text, vec)
				defer rd.Close()
				lo, hi := chunkBounds(len(seg.Rows), nch, ci)
				for ri := lo; ri < hi; ri++ {
					r := seg.Rows[ri]
					start, count := descendSpan(sc.down, r.Occ[col], 1)
					if count == 0 {
						continue
					}
					scannedByChunk[ci] += count
					rv := &perRow[ri]
					err := rd.Scan(start, count, func(_ int64, val []byte) error {
						v := string(val)
						if len(rv.vals) == 0 {
							rv.min, rv.max = v, v
						} else {
							if compareValues(v, rv.min) < 0 {
								rv.min = v
							}
							if compareValues(v, rv.max) > 0 {
								rv.max = v
							}
						}
						rv.vals = append(rv.vals, v)
						return nil
					})
					if err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			for ci := 0; ci < nch; ci++ {
				x.stats.ValuesScanned += scannedByChunk[ci]
			}
		}
		out = append(out, perRow...)
	}
	return out, nil
}

// opJoin evaluates an equality (or comparison) edge. Within one table it
// is a row filter: a row survives iff some pair of its left/right values
// satisfies the comparison. Across tables it merges the two instantiation
// tables, pairing rows whose value sets match — the paper's node merge.
// With Options.FilterOnlyJoins, cross-table joins only filter each side
// (the §4.2 literal reading) and pairing happens by cartesian grouping.
func (x *evalContext) opJoin(op qgraph.Op) error {
	lt, lcol, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	rt, rcol, err := x.tableOf(op.RVar)
	if err != nil {
		return err
	}
	lvals, err := x.gatherVals(lt, lcol, op.Path, op)
	if err != nil {
		return err
	}
	// Index-nested-loops: for a cross-table equality join whose right side
	// has a vector index, probe the index with the left values instead of
	// scanning the right vector (the §6 extension; this is the plan that
	// wins the paper's SQ3 for the tuned relational system).
	if lt != rt && op.Cmp == xq.OpEq && !x.e.Opts.FilterOnlyJoins {
		if pairs, ok, err := x.indexProbeJoin(lt, rt, rcol, op, lvals); err != nil {
			return err
		} else if ok {
			return x.mergePairs(lt, rt, pairs)
		}
	}
	rvals, err := x.gatherVals(rt, rcol, op.RPath, op)
	if err != nil {
		return err
	}
	if lt == rt {
		return x.joinSameTable(lt, lvals, rvals, op.Cmp)
	}
	if x.e.Opts.FilterOnlyJoins {
		return x.joinFilterOnly(lt, rt, lvals, rvals, op.Cmp)
	}
	return x.joinMerge(lt, rt, lvals, rvals, op.Cmp)
}

// indexProbeJoin pairs left rows with right rows via the right side's
// vector index. Applicable when the right path resolves to one chain
// whose text class is indexed.
func (x *evalContext) indexProbeJoin(lt, rt *Table, rcol int, op qgraph.Op, lvals []rowVals) ([]pair, bool, error) {
	if len(rt.Segs) != 1 {
		return nil, false, nil
	}
	seg := rt.Segs[0]
	chains := x.selChains(seg.Classes[rcol], qgraph.Op{Path: op.RPath}, true)
	if len(chains) != 1 {
		return nil, false, nil
	}
	sc := chains[0]
	idx, ok := x.e.lookupIndex(sc.text)
	if !ok {
		return nil, false, nil
	}
	x.stats.IndexHits++
	x.normalizeSeg(seg)
	// Map right-variable occurrences to row indices.
	occRow := make(map[int64]int, len(seg.Rows))
	for ri, r := range seg.Rows {
		occRow[r.Occ[rcol]] = ri
	}
	var pairs []pair
	seen := map[pair]bool{}
	for i := range lvals {
		l := &lvals[i]
		dedup := map[string]bool{}
		for _, v := range l.vals {
			if dedup[v] {
				continue
			}
			dedup[v] = true
			for _, pos := range idx.Positions(xq.OpEq, v) {
				rOcc := ascendPos(sc.down, pos)
				ri, ok := occRow[rOcc]
				if !ok {
					continue
				}
				p := pair{l.ref, rowRef{0, ri}}
				if !seen[p] {
					seen[p] = true
					pairs = append(pairs, p)
				}
			}
		}
	}
	sortPairs(pairs)
	return pairs, true, nil
}

// joinSameTable keeps rows whose left and right value sets are compatible.
func (x *evalContext) joinSameTable(t *Table, lvals, rvals []rowVals, cmp xq.CmpOp) error {
	right := make(map[rowRef]*rowVals, len(rvals))
	for i := range rvals {
		right[rvals[i].ref] = &rvals[i]
	}
	keep := make(map[rowRef]bool)
	for i := range lvals {
		l := &lvals[i]
		r := right[l.ref]
		if r == nil || len(l.vals) == 0 || len(r.vals) == 0 {
			continue
		}
		if valsCompatible(l, r, cmp) {
			keep[l.ref] = true
		}
	}
	for si, seg := range t.Segs {
		var rows []Row
		for ri, r := range seg.Rows {
			if keep[rowRef{si, ri}] {
				rows = append(rows, r)
			}
		}
		seg.Rows = mergeRows(rows)
	}
	t.Segs = compactSegs(t.Segs)
	return nil
}

// valsCompatible reports whether some (l, r) value pair satisfies cmp.
func valsCompatible(l, r *rowVals, cmp xq.CmpOp) bool {
	switch cmp {
	case xq.OpEq:
		if len(l.vals) > len(r.vals) {
			l, r = r, l
		}
		set := make(map[string]bool, len(l.vals))
		for _, v := range l.vals {
			set[v] = true
		}
		for _, v := range r.vals {
			if set[v] {
				return true
			}
		}
		// Numeric-equality fallback ("40" vs "40.0"): compare extrema.
		return compareValues(l.min, r.max) == 0 || compareValues(l.max, r.min) == 0
	case xq.OpNe:
		// Fails only when both sides hold exactly one distinct value and
		// they are equal.
		if !allEqual(l.vals) || !allEqual(r.vals) {
			return true
		}
		return l.vals[0] != r.vals[0]
	case xq.OpLt:
		return compareValues(l.min, r.max) < 0
	case xq.OpLe:
		return compareValues(l.min, r.max) <= 0
	case xq.OpGt:
		return compareValues(l.max, r.min) > 0
	case xq.OpGe:
		return compareValues(l.max, r.min) >= 0
	}
	return false
}

func allEqual(vals []string) bool {
	for _, v := range vals[1:] {
		if v != vals[0] {
			return false
		}
	}
	return true
}

// joinMerge merges two tables on a value comparison: output rows are the
// pairs (deduplicated — the condition is a predicate, not a multiplier).
func (x *evalContext) joinMerge(lt, rt *Table, lvals, rvals []rowVals, cmp xq.CmpOp) error {
	return x.mergePairs(lt, rt, matchPairs(lvals, rvals, cmp))
}

// mergePairs replaces lt and rt with their join on the given row pairs.
func (x *evalContext) mergePairs(lt, rt *Table, pairs []pair) error {
	// The left table's trailing runs become middle columns: normalize.
	for _, seg := range lt.Segs {
		x.normalizeSeg(seg)
	}
	merged := &Table{Vars: append(append([]string{}, lt.Vars...), rt.Vars...)}
	segIndex := map[[2]int]*Segment{}
	for _, pr := range pairs {
		ls, rs := lt.Segs[pr.l.seg], rt.Segs[pr.r.seg]
		key := [2]int{pr.l.seg, pr.r.seg}
		seg, ok := segIndex[key]
		if !ok {
			seg = &Segment{Classes: append(append([]skeleton.ClassID{}, ls.Classes...), rs.Classes...)}
			segIndex[key] = seg
			merged.Segs = append(merged.Segs, seg)
		}
		lr, rr := ls.Rows[pr.l.row], rs.Rows[pr.r.row]
		occ := append(append([]int64{}, lr.Occ...), rr.Occ...)
		seg.Rows = append(seg.Rows, Row{Occ: occ, Run: rr.Run, Mult: lr.Mult * rr.Mult})
	}
	for _, seg := range merged.Segs {
		seg.Rows = mergeRows(seg.Rows)
		x.stats.RowsProduced += int64(len(seg.Rows))
	}

	// Replace the two tables with the merged one.
	li, ri := indexOfTable(x.tables, lt), indexOfTable(x.tables, rt)
	x.tables[li] = merged
	x.tables[ri] = nil
	for _, v := range merged.Vars {
		x.varTabs[v] = li
	}
	return nil
}

type pair struct{ l, r rowRef }

// matchPairs finds all (left row, right row) pairs with compatible values,
// ordered left-major (nested-for order), deduplicated.
func matchPairs(lvals, rvals []rowVals, cmp xq.CmpOp) []pair {
	var out []pair
	seen := map[pair]bool{}
	add := func(p pair) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	if cmp == xq.OpEq {
		index := make(map[string][]rowRef)
		for i := range rvals {
			r := &rvals[i]
			dedup := map[string]bool{}
			for _, v := range r.vals {
				if !dedup[v] {
					dedup[v] = true
					index[v] = append(index[v], r.ref)
				}
			}
		}
		for i := range lvals {
			l := &lvals[i]
			dedup := map[string]bool{}
			for _, v := range l.vals {
				if dedup[v] {
					continue
				}
				dedup[v] = true
				for _, rref := range index[v] {
					add(pair{l.ref, rref})
				}
			}
		}
	} else {
		// Comparison join: sort right rows by max (or min) and probe.
		// Kept simple (per-pair check) — the workload's comparison joins
		// are same-table; cross-table ones are small.
		for i := range lvals {
			if len(lvals[i].vals) == 0 {
				continue
			}
			for j := range rvals {
				if len(rvals[j].vals) == 0 {
					continue
				}
				if valsCompatible(&lvals[i], &rvals[j], cmp) {
					add(pair{lvals[i].ref, rvals[j].ref})
				}
			}
		}
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs left-major (nested-for order).
func sortPairs(out []pair) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.l != b.l {
			if a.l.seg != b.l.seg {
				return a.l.seg < b.l.seg
			}
			return a.l.row < b.l.row
		}
		if a.r.seg != b.r.seg {
			return a.r.seg < b.r.seg
		}
		return a.r.row < b.r.row
	})
}

// joinFilterOnly is the ablation mode: both sides are filtered to the rows
// participating in some match, without pairing.
func (x *evalContext) joinFilterOnly(lt, rt *Table, lvals, rvals []rowVals, cmp xq.CmpOp) error {
	pairs := matchPairs(lvals, rvals, cmp)
	keepL, keepR := map[rowRef]bool{}, map[rowRef]bool{}
	for _, p := range pairs {
		keepL[p.l] = true
		keepR[p.r] = true
	}
	filterRows(lt, keepL)
	filterRows(rt, keepR)
	return nil
}

func filterRows(t *Table, keep map[rowRef]bool) {
	for si, seg := range t.Segs {
		var rows []Row
		for ri, r := range seg.Rows {
			if keep[rowRef{si, ri}] {
				rows = append(rows, r)
			}
		}
		seg.Rows = mergeRows(rows)
	}
	t.Segs = compactSegs(t.Segs)
}
