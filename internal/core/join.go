package core

import (
	"cmp"
	"slices"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/xq"
)

// rowVals is the value set reachable from one row via the join path,
// with min/max under compareValues for inequality joins. gatherVals
// returns one per row, in row order.
type rowVals struct {
	vals     []string
	min, max string
}

// gatherVals computes, per row of t, the values reachable from column col
// via steps (existential set semantics). The column is normalized to
// scalars first: each row contributes one variable instance. The rows fan
// out across the worker pool (pathRes.scan): every row's value slot is
// written by exactly one goroutine, each row reads its chains in order,
// and scan counters merge in chunk order, so the gathered values are
// identical to a serial pass.
func (x *evalContext) gatherVals(t *Table, col int, steps []xq.Step) ([]rowVals, error) {
	x.normalizeSeg(&t.Segment)
	p := x.paths(steps, true)
	out := make([]rowVals, len(t.Rows))
	nch := rowChunks(x.e.workers(), len(t.Rows))
	scannedByChunk := make([]int64, nch)
	err := p.scan(&t.Segment, col, nch, nil, func(sr scanRow) error {
		rv := &out[sr.ri]
		for i := range sr.chains {
			start, count := descendSpan(sr.chains[i].down, sr.occ, 1)
			if count == 0 {
				continue
			}
			scannedByChunk[sr.ci] += count
			err := sr.rs.get(&sr.chains[i]).Scan(start, count, func(_ int64, val []byte) error {
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
	lvals, err := x.gatherVals(lt, lcol, op.Path)
	if err != nil {
		return err
	}
	// Index-nested-loops: for a cross-table equality join whose right side
	// has a vector index, probe the index with the left values instead of
	// scanning the right vector (the §6 extension; this is the plan that
	// wins the paper's SQ3 for the tuned relational system).
	if lt != rt && op.Cmp == xq.OpEq && !x.e.Opts.FilterOnlyJoins {
		if pairs, ok, err := x.indexProbeJoin(rt, rcol, op, lvals); err != nil {
			return err
		} else if ok {
			return x.mergePairs(lt, rt, pairs)
		}
	}
	rvals, err := x.gatherVals(rt, rcol, op.RPath)
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
func (x *evalContext) indexProbeJoin(rt *Table, rcol int, op qgraph.Op, lvals []rowVals) ([]pair, bool, error) {
	if rt.Classes[rcol] == skeleton.NoClass {
		return nil, false, nil // a class-set column: gather its values instead
	}
	chains := x.paths(op.RPath, true).from(rt.Classes[rcol])
	if len(chains) != 1 {
		return nil, false, nil
	}
	sc := chains[0]
	idx, ok := x.e.lookupIndex(sc.dst)
	if !ok {
		return nil, false, nil
	}
	x.stats.IndexHits++
	x.normalizeSeg(&rt.Segment)
	// Map right-variable occurrences to row indices.
	occRow := make(map[int64]int, len(rt.Rows))
	for ri, r := range rt.Rows {
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
				p := pair{i, ri}
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
	keep := make([]bool, len(t.Rows))
	for i := range keep {
		keep[i] = len(lvals[i].vals) > 0 && len(rvals[i].vals) > 0 && valsCompatible(&lvals[i], &rvals[i], cmp)
	}
	filterRows(t, keep)
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
	x.normalizeSeg(&lt.Segment)
	merged := &Table{
		Vars:    append(slices.Clone(lt.Vars), rt.Vars...),
		Segment: Segment{Classes: append(slices.Clone(lt.Classes), rt.Classes...)},
	}
	for _, pr := range pairs {
		lr, rr := lt.Rows[pr.l], rt.Rows[pr.r]
		occ := append(slices.Clone(lr.Occ), rr.Occ...)
		merged.Rows = append(merged.Rows, Row{Occ: occ, Run: rr.Run, Mult: lr.Mult * rr.Mult})
	}
	merged.Rows = mergeRows(merged.Rows)
	x.stats.RowsProduced += int64(len(merged.Rows))

	// Replace the two tables with the merged one.
	li, ri := indexOfTable(x.tables, lt), indexOfTable(x.tables, rt)
	x.tables[li] = merged
	x.tables[ri] = nil
	for _, v := range merged.Vars {
		x.varTabs[v] = li
	}
	return nil
}

// pair is a (left row, right row) match of a join.
type pair struct{ l, r int }

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
		index := make(map[string][]int)
		for i := range rvals {
			dedup := map[string]bool{}
			for _, v := range rvals[i].vals {
				if !dedup[v] {
					dedup[v] = true
					index[v] = append(index[v], i)
				}
			}
		}
		for i := range lvals {
			dedup := map[string]bool{}
			for _, v := range lvals[i].vals {
				if dedup[v] {
					continue
				}
				dedup[v] = true
				for _, j := range index[v] {
					add(pair{i, j})
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
					add(pair{i, j})
				}
			}
		}
	}
	sortPairs(out)
	return out
}

// sortPairs orders pairs left-major (nested-for order).
func sortPairs(out []pair) {
	slices.SortFunc(out, func(a, b pair) int { return cmp.Or(cmp.Compare(a.l, b.l), cmp.Compare(a.r, b.r)) })
}

// joinFilterOnly is the ablation mode: both sides are filtered to the rows
// participating in some match, without pairing.
func (x *evalContext) joinFilterOnly(lt, rt *Table, lvals, rvals []rowVals, cmp xq.CmpOp) error {
	keepL, keepR := make([]bool, len(lt.Rows)), make([]bool, len(rt.Rows))
	for _, p := range matchPairs(lvals, rvals, cmp) {
		keepL[p.l], keepR[p.r] = true, true
	}
	filterRows(lt, keepL)
	filterRows(rt, keepR)
	return nil
}

// filterRows keeps the rows of t that keep marks.
func filterRows(t *Table, keep []bool) {
	var rows []Row
	for ri, r := range t.Rows {
		if keep[ri] {
			rows = append(rows, r)
		}
	}
	t.Rows = mergeRows(rows)
}
