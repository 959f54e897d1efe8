package core

import (
	"fmt"
	"sort"

	"vxml/internal/skeleton"
	"vxml/internal/xq"
)

// VectorIndex is a sorted (value, position) index over one data vector —
// the paper's §6 future-work item ("we currently make no use of indexing,
// and there is no reason why we cannot use it with the same effect as in
// relational systems"). With an index, a selection becomes a lookup (or a
// range scan) instead of a full vector scan; SQ3's reversal against the
// indexed relational plan disappears (see the ablation benchmarks).
type VectorIndex struct {
	vals []string
	pos  []int64
}

// BuildVectorIndex sorts one vector's values. Load-time work: build
// indexes before serving queries. Concurrent builds are safe (the last
// build of a path wins); queries started before a build may not see it.
//
//vx:rawvector index builds run outside any evaluation, with no ctx in scope
//vx:fault-classified load-time API: an index build that hits a corrupt vector fails the build and surfaces raw
func (e *Engine) BuildVectorIndex(path string) (*VectorIndex, error) {
	cls := e.Classes.Resolve(path)
	if cls == skeleton.NoClass {
		return nil, fmt.Errorf("core: no class %q to index", path)
	}
	text := e.textTarget(cls)
	if text == skeleton.NoClass {
		return nil, fmt.Errorf("core: class %q has no text values to index", path)
	}
	vec, err := e.Vectors.Vector(e.Classes.VectorName(text))
	if err != nil {
		return nil, err
	}
	idx := &VectorIndex{
		vals: make([]string, 0, vec.Len()),
		pos:  make([]int64, 0, vec.Len()),
	}
	err = vec.Scan(0, vec.Len(), func(p int64, val []byte) error {
		idx.vals = append(idx.vals, string(val))
		idx.pos = append(idx.pos, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	order := make([]int, len(idx.vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return xq.CompareValues(idx.vals[order[a]], idx.vals[order[b]]) < 0
	})
	vals := make([]string, len(order))
	pos := make([]int64, len(order))
	for i, o := range order {
		vals[i], pos[i] = idx.vals[o], idx.pos[o]
	}
	idx.vals, idx.pos = vals, pos

	e.idxMu.Lock()
	if e.indexes == nil {
		e.indexes = make(map[skeleton.ClassID]*VectorIndex)
	}
	e.indexes[text] = idx
	e.idxMu.Unlock()
	return idx, nil
}

// lookupIndex returns the vector index of a text class, if one was built.
// A VectorIndex is immutable once published, so readers only need the map
// lock.
func (e *Engine) lookupIndex(text skeleton.ClassID) (*VectorIndex, bool) {
	e.idxMu.RLock()
	idx, ok := e.indexes[text]
	e.idxMu.RUnlock()
	return idx, ok
}

// Positions returns, sorted ascending, the vector positions whose value
// satisfies "value op bound".
func (idx *VectorIndex) Positions(op xq.CmpOp, bound string) []int64 {
	n := len(idx.vals)
	lower := func() int { // first i with vals[i] >= bound
		return sort.Search(n, func(i int) bool { return xq.CompareValues(idx.vals[i], bound) >= 0 })
	}
	upper := func() int { // first i with vals[i] > bound
		return sort.Search(n, func(i int) bool { return xq.CompareValues(idx.vals[i], bound) > 0 })
	}
	var out []int64
	collect := func(lo, hi int) {
		out = append(out, idx.pos[lo:hi]...)
	}
	switch op {
	case xq.OpEq:
		collect(lower(), upper())
	case xq.OpNe:
		collect(0, lower())
		collect(upper(), n)
	case xq.OpLt:
		collect(0, lower())
	case xq.OpLe:
		collect(0, upper())
	case xq.OpGt:
		collect(upper(), n)
	case xq.OpGe:
		collect(lower(), n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
