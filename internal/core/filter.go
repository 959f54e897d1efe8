package core

import (
	"sort"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
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

// unionSpans merges two sorted span lists.
func unionSpans(a, b []span) []span {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	merged := make([]span, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i].Start <= b[j].Start):
			merged = append(merged, a[i])
			i++
		default:
			merged = append(merged, b[j])
			j++
		}
	}
	return mergeSpans(merged)
}

// intersectSpan clips sorted spans to the window [start, start+count).
func intersectSpan(spans []span, start, count int64) []span {
	var out []span
	end := start + count
	for _, s := range spans {
		lo, hi := s.Start, s.Start+s.Count
		if lo < start {
			lo = start
		}
		if hi > end {
			hi = end
		}
		if lo < hi {
			out = append(out, span{lo, hi - lo})
		}
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

// selChain is one class chain ending at a text class (selection) or
// element class (existence); cursors are stateless and shared.
type selChain struct {
	down []*skeleton.Cursor
	text skeleton.ClassID // text class for selections; NoClass for exists
}

// selChains resolves the chains of a filter operation. For selections the
// target classes extend to their text child; element targets without text
// anywhere are skipped (they can never satisfy a value comparison).
// It is an evalContext method so memoized target resolutions count toward
// the evaluation's MemoHits.
func (x *evalContext) selChains(src skeleton.ClassID, op qgraph.Op, wantText bool) []selChain {
	e := x.e
	var out []selChain
	for _, dst := range x.resolveTargets(src, op.Path) {
		target := dst
		if wantText {
			target = e.textTarget(dst)
			if target == skeleton.NoClass {
				continue
			}
		}
		chain := e.chainBetween(src, target)
		sc := selChain{down: e.chainCursors(chain)}
		if wantText {
			sc.text = target
		} else {
			sc.text = skeleton.NoClass
		}
		out = append(out, sc)
	}
	return out
}

// opSel filters op.Var keeping occurrences with some value under op.Path
// satisfying the comparison — the paper's selection reduce step. Each
// needed data vector is scanned once per operation over the union of the
// rows' spans (collection-at-a-time).
func (x *evalContext) opSel(op qgraph.Op) error {
	t, col, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	for si, seg := range t.Segs {
		chains := x.selChains(seg.Classes[col], op, true)
		var keep []span
		rest := chains[:0]
		for _, sc := range chains {
			if s, ok := x.e.indexedSpans(seg, col, sc, op.Cmp, op.Value); ok {
				x.stats.IndexHits++
				keep = unionSpans(keep, s)
				continue
			}
			rest = append(rest, sc)
		}
		scanned, err := x.matchedSpans(seg, col, rest, func(val []byte) bool {
			return satisfies(string(val), op.Cmp, op.Value)
		})
		if err != nil {
			return err
		}
		keep = unionSpans(keep, scanned)
		t.Segs[si] = filterSegment(seg, col, keep)
	}
	t.Segs = compactSegs(t.Segs)
	return nil
}

// opExists filters op.Var keeping occurrences that have any node reachable
// via op.Path — a structure-only test that never touches data vectors
// (run-compressed throughout, cost proportional to skeleton runs).
func (x *evalContext) opExists(op qgraph.Op) error {
	t, col, err := x.tableOf(op.Var)
	if err != nil {
		return err
	}
	for si, seg := range t.Segs {
		chains := x.selChains(seg.Classes[col], op, false)
		var keep []span
		for _, sc := range chains {
			for _, r := range seg.Rows {
				occ, n := r.Occ[col], int64(1)
				if col == len(seg.Classes)-1 {
					n = r.Run
				}
				keep = unionSpans(keep, existsRuns(sc.down, 0, occ, n))
			}
		}
		t.Segs[si] = filterSegment(seg, col, keep)
	}
	t.Segs = compactSegs(t.Segs)
	return nil
}

// existsRuns returns the sub-runs of parents [p0, p0+n) at cursor level
// lvl that have at least one descendant through the remaining levels.
// It recurses per uniform-fanout segment, so regular data costs O(runs).
func existsRuns(curs []*skeleton.Cursor, lvl int, p0, n int64) []span {
	var out []span
	curs[lvl].Segments(p0, n, func(q0, m, k, c0 int64) {
		if k == 0 {
			return
		}
		if lvl == len(curs)-1 {
			out = append(out, span{q0, m})
			return
		}
		for _, s := range existsRuns(curs, lvl+1, c0, m*k) {
			ps := q0 + (s.Start-c0)/k
			pe := q0 + (s.Start+s.Count-1-c0)/k
			out = append(out, span{ps, pe - ps + 1})
		}
	})
	return mergeSpans(out)
}

// matchedSpans scans, per chain, the data vector over each row's span and
// maps matching positions back up to op.Var occurrences. The row scans of
// one chain fan out across the engine's worker pool in contiguous chunks,
// each reading its rows (in document order) through its own reader;
// per-chunk hit lists and scan counters merge in chunk order (and the hits
// are sorted before span building anyway), so the result — spans and
// stats — is identical to a serial scan.
func (x *evalContext) matchedSpans(seg *Segment, col int, chains []selChain, pred func([]byte) bool) ([]span, error) {
	var keep []span
	nworkers := x.e.workers()
	for _, sc := range chains {
		vec, err := x.vectorFor(sc.text)
		if err != nil {
			return nil, err
		}
		nch := rowChunks(nworkers, len(seg.Rows))
		hitsByChunk := make([][]int64, nch)
		scannedByChunk := make([]int64, nch)
		err = parallelFor(x.ctx, nworkers, nch, func(ci int) error {
			rd := x.newReader(sc.text, vec)
			defer rd.Close()
			lo, hi := chunkBounds(len(seg.Rows), nch, ci)
			for ri := lo; ri < hi; ri++ {
				r := seg.Rows[ri]
				occ, n := r.Occ[col], int64(1)
				if col == len(seg.Classes)-1 {
					n = r.Run
				}
				start, count := descendSpan(sc.down, occ, n)
				if count == 0 {
					continue
				}
				scannedByChunk[ci] += count
				err := rd.Scan(start, count, func(pos int64, val []byte) error {
					if pred(val) {
						hitsByChunk[ci] = append(hitsByChunk[ci], ascendPos(sc.down, pos))
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
		var hits []int64
		for ci := 0; ci < nch; ci++ {
			hits = append(hits, hitsByChunk[ci]...)
			x.stats.ValuesScanned += scannedByChunk[ci]
		}
		sort.Slice(hits, func(i, j int) bool { return hits[i] < hits[j] })
		keep = unionSpans(keep, spansFromSorted(hits))
	}
	return keep, nil
}

// filterSegment keeps only the occurrences of column col that fall in the
// keep spans, splitting run rows as needed.
func filterSegment(seg *Segment, col int, keep []span) *Segment {
	out := &Segment{Classes: seg.Classes}
	last := col == len(seg.Classes)-1
	for _, r := range seg.Rows {
		n := int64(1)
		if last {
			n = r.Run
		}
		for _, s := range intersectSpan(keep, r.Occ[col], n) {
			occ := make([]int64, len(r.Occ))
			copy(occ, r.Occ)
			occ[col] = s.Start
			nr := Row{Occ: occ, Run: s.Count, Mult: r.Mult}
			if !last {
				// The span is within a single occurrence; keep the row.
				nr.Occ[col] = r.Occ[col]
				nr.Run = r.Run
			}
			out.Rows = append(out.Rows, nr)
			if !last {
				break // one keep decision per scalar occurrence
			}
		}
	}
	out.Rows = mergeRows(out.Rows)
	return out
}

// compactSegs drops empty segments.
func compactSegs(segs []*Segment) []*Segment {
	out := segs[:0]
	for _, s := range segs {
		if len(s.Rows) > 0 {
			out = append(out, s)
		}
	}
	return out
}
