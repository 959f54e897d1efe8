package core

import (
	"cmp"
	"slices"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
	"vxml/internal/xq"
)

// span is a run of consecutive occurrences [Start, Start+Count).
type span struct {
	Start, Count int64
}

// mergeSpans merges overlapping/adjacent spans; input must be sorted by
// Start.
func mergeSpans(spans []span) []span {
	out := spans[:0]
	for _, s := range spans {
		if s.Count <= 0 {
			continue
		}
		if len(out) > 0 {
			p := &out[len(out)-1]
			if s.Start <= p.Start+p.Count {
				if end := s.Start + s.Count; end > p.Start+p.Count {
					p.Count = end - p.Start
				}
				continue
			}
		}
		out = append(out, s)
	}
	return out
}

// spansFromSorted turns a sorted (possibly duplicated) position list into
// merged spans.
func spansFromSorted(ps []int64) []span {
	var out []span
	for _, p := range ps {
		if n := len(out); n > 0 {
			last := &out[n-1]
			if p < last.Start+last.Count {
				continue // duplicate
			}
			if p == last.Start+last.Count {
				last.Count++
				continue
			}
		}
		out = append(out, span{p, 1})
	}
	return out
}

// opSel filters op.Var keeping occurrences with some value under op.Path
// satisfying the comparison — the paper's selection reduce step. Each
// needed data vector is read once per operation, over the rows' spans in
// document order (collection-at-a-time).
func (x *evalContext) opSel(op qgraph.Op) error {
	t, col, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	keep, err := x.matchedSpans(&t.Segment, col, x.paths(op.Path, true), op.Cmp, op.Value)
	if err != nil {
		return err
	}
	t.filter(col, keep)
	return nil
}

// opExists filters op.Var keeping occurrences that have any node reachable
// via op.Path — a structure-only test that never touches data vectors.
// The kept occurrences of each class are its chains' existence spans,
// computed from the target side (existsRuns), so the cost follows the
// targets' runs, not the rows.
func (x *evalContext) opExists(op qgraph.Op) error {
	t, col, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	p := x.paths(op.Path, false)
	var keep []span
	for _, c := range t.classesOf(col) {
		var spans []span
		for _, ch := range p.from(c) {
			spans = append(spans, existsRuns(ch.down, x.e.Classes.Count(ch.dst))...)
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.Start, b.Start) })
		for _, s := range mergeSpans(spans) {
			keep = append(keep, span{t.entry(col, c, s.Start), s.Count})
		}
	}
	t.filter(col, keep)
	return nil
}

// existsRuns returns the spans of source occurrences that have at least
// one of the n occurrences of the chain's last class below them. It
// ascends from the target a class at a time: the parents of a span of
// children are the run of parents from the first child's to the last
// child's, less those with no children at all, found per uniform-fanout
// run (Cursor.Segments) — so regular data costs O(runs), and irregular
// data O(target occurrences), however many occurrences the source has.
func existsRuns(curs []*skeleton.Cursor, n int64) []span {
	if n == 0 {
		return nil
	}
	spans := []span{{0, n}}
	for i := len(curs) - 1; i >= 0; i-- {
		var up []span
		for _, s := range spans {
			p0 := curs[i].ParentOf(s.Start)
			curs[i].Segments(p0, curs[i].ParentOf(s.Start+s.Count-1)-p0+1, func(q0, m, k, _ int64) {
				if k > 0 {
					up = append(up, span{q0, m})
				}
			})
		}
		spans = mergeSpans(up)
	}
	return spans
}

// matchedSpans returns, as sorted spans of column col's entries, the
// occurrences with some value under the op's path satisfying
// "value op bound". Each row, per chain from its class, scans the chain's
// vector over its span — or, when the chain's text class has a vector
// index, looks the matching positions up there — and maps hits back up to
// its occurrences. The rows go in column-entry order (pathRes.scan), and
// the hits are sorted before span building.
func (x *evalContext) matchedSpans(seg *Segment, col int, p *pathRes, op xq.CmpOp, bound string) ([]span, error) {
	var indexed [][]int64 // per slot; non-nil: the matching positions
	index := func(slot int, text skeleton.ClassID) bool {
		indexed = append(indexed, nil)
		if idx, ok := x.e.lookupIndex(text); ok {
			indexed[slot] = append([]int64{}, idx.Positions(op, bound)...)
			x.stats.IndexHits++
		}
		return indexed[slot] != nil
	}
	bd := xq.NewBound(bound)
	last := col == len(seg.Classes)-1
	var hits []int64
	err := p.scan(seg, col, index, func(sr scanRow) error {
		n := int64(1)
		if last {
			n = seg.Rows[sr.ri].Run
		}
		for i := range sr.chains {
			ch := &sr.chains[i]
			start, count := descendSpan(ch.down, sr.occ, n)
			if count == 0 {
				continue
			}
			if ps := indexed[ch.slot]; ps != nil {
				i, _ := slices.BinarySearch(ps, start)
				for ; i < len(ps) && ps[i] < start+count; i++ {
					hits = append(hits, seg.entry(col, sr.class, ascendPos(ch.down, ps[i])))
				}
				continue
			}
			x.stats.ValuesScanned += count
			err := sr.rds[ch.slot].Scan(start, count, func(pos int64, val []byte) error {
				if bd.Holds(string(val), op) {
					hits = append(hits, seg.entry(col, sr.class, ascendPos(ch.down, pos)))
				}
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
	slices.Sort(hits)
	return spansFromSorted(hits), nil
}
