package skeleton

import "vxml/internal/xmlmodel"

// NodeRun says that the next Count occurrences of a class are instances of
// the same DAG node.
type NodeRun struct {
	Count int64
	Node  NodeID
}

// NodeRuns returns, in document order and run-length encoded, which DAG
// node each occurrence of the class is an instance of. A class instanced
// by one node is one run; otherwise the runs are derived from the parent
// class's NodeRuns (each parent-node instance contributes its matching
// child-edge sequence). They are memoized per class, and underpin both
// positional run maps and result-skeleton subtree copies.
func (c *Classes) NodeRuns(id ClassID) []NodeRun {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.nodeRunsLocked(id)
}

// nodeRunsLocked is NodeRuns with c.mu held (the derivation recurses up
// the parent chain, and Go mutexes are not reentrant).
//
//vx:locked mu
func (c *Classes) nodeRunsLocked(id ClassID) []NodeRun {
	m := &c.memos[id]
	if m.nodeRuns != nil {
		return m.nodeRuns
	}
	info := c.infos[id]
	if nodes := c.nodesOf(id); len(nodes) == 1 {
		m.nodeRuns = []NodeRun{{Count: info.count, Node: nodes[0]}}
	} else {
		m.nodeRuns = deriveNodeRuns(c.skel, c.nodeRunsLocked(info.parent), info.tag)
	}
	return m.nodeRuns
}

// deriveNodeRuns is the node runs of the child class reached by step from
// a class whose occurrences are the node runs parent.
func deriveNodeRuns(s *Skeleton, parent []NodeRun, step xmlmodel.Sym) []NodeRun {
	var out []NodeRun
	var sub []NodeRun // scratch: child sequence of one parent instance
	for _, pr := range parent {
		sub = sub[:0]
		for _, e := range s.Edges(pr.Node) {
			if s.tags[e.Child] != step {
				continue
			}
			if n := len(sub); n > 0 && sub[n-1].Node == e.Child {
				sub[n-1].Count += e.Count
			} else {
				sub = append(sub, NodeRun{Count: e.Count, Node: e.Child})
			}
		}
		out = appendNodeRuns(out, sub, pr.Count)
	}
	if out == nil {
		out = []NodeRun{}
	}
	return out
}

func appendNodeRuns(out, sub []NodeRun, times int64) []NodeRun {
	if len(sub) == 0 || times == 0 {
		return out
	}
	if len(sub) == 1 {
		r := NodeRun{Count: sub[0].Count * times, Node: sub[0].Node}
		if len(out) > 0 && out[len(out)-1].Node == r.Node {
			out[len(out)-1].Count += r.Count
			return out
		}
		return append(out, r)
	}
	uniform := true
	for _, r := range sub[1:] {
		if r.Node != sub[0].Node {
			uniform = false
			break
		}
	}
	if uniform {
		var total int64
		for _, r := range sub {
			total += r.Count
		}
		return appendNodeRuns(out, []NodeRun{{Count: total, Node: sub[0].Node}}, times)
	}
	for i := int64(0); i < times; i++ {
		for _, r := range sub {
			if len(out) > 0 && out[len(out)-1].Node == r.Node {
				out[len(out)-1].Count += r.Count
			} else {
				out = append(out, r)
			}
		}
	}
	return out
}

// NodeCursor iterates NodeRuns with monotonic-friendly seeks.
type NodeCursor struct {
	runs []NodeRun
	ri   int
	base int64
}

// NewNodeCursor returns a cursor over runs.
func NewNodeCursor(runs []NodeRun) *NodeCursor { return &NodeCursor{runs: runs} }

// At returns the DAG node of occurrence occ.
func (nc *NodeCursor) At(occ int64) NodeID {
	for nc.ri > 0 && occ < nc.base {
		nc.ri--
		nc.base -= nc.runs[nc.ri].Count
	}
	for nc.ri < len(nc.runs) && occ >= nc.base+nc.runs[nc.ri].Count {
		nc.base += nc.runs[nc.ri].Count
		nc.ri++
	}
	if nc.ri >= len(nc.runs) {
		panic("skeleton: NodeCursor.At out of range")
	}
	return nc.runs[nc.ri].Node
}
