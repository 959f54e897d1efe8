package shard

import (
	"vxml/internal/qgraph"
	"vxml/internal/xq"
)

// Scatter-gather is only correct for queries that decompose over
// documents: evaluating the query on each shard independently and
// concatenating the answers (in federation document order) must equal
// evaluating it once over the union of all documents. The fragment's
// one construct that spans documents is the *document root*: every
// shard has its own root element standing in for the union's single
// root, so any query that can observe the root's identity or
// multiplicity — return it, filter on it, join through it, or take two
// independent projections out of it (a root-level cartesian product) —
// would multiply or mis-filter under scatter. Everything else in the
// fragment is local to one bound occurrence, and every bound occurrence
// lives in exactly one shard.
//
// Shardable therefore admits a plan when:
//
//   - it binds the document exactly once (a second doc-rooted binding is
//     an implicit root-level join);
//   - and either that binding's targets provably exclude the root class
//     (its path has >= 2 steps, or a 1-step descendant axis that cannot
//     name the root), or the root-bound variable is *transparent*: never
//     the subject of a selection/existence test or a join side, never
//     returned as an element itself, and consumed by exactly one
//     downward path — either one plan projection (with the root absent
//     from the return expression) or, with no plan projection, a return
//     expression that is exactly one root-rooted path item. Those are
//     the shapes where per-shard root multiplicity cancels out: every
//     emitted value is anchored strictly below the root, once.
//
// Anything else falls back to the union view, which is always correct
// (it evaluates the single-repository semantics over a merged skeleton)
// at the cost of no scatter parallelism.
func Shardable(plan *qgraph.Plan, rootTag string) (ok bool, reason string) {
	var bind *qgraph.Op
	for i := range plan.Ops {
		if plan.Ops[i].Kind != qgraph.OpBind {
			continue
		}
		if bind != nil {
			return false, "binds the document more than once"
		}
		bind = &plan.Ops[i]
	}
	if bind == nil {
		return false, "no document binding"
	}
	if len(bind.Path) == 0 {
		return false, "degenerate document binding"
	}
	if !bindsRoot(bind.Path, rootTag) {
		return true, ""
	}

	// The binding can target the root class. Collect the variables that
	// alias it (zero-step projections copy a column verbatim) and check
	// transparency.
	rootVars := map[string]bool{bind.Var: true}
	for changed := true; changed; {
		changed = false
		for _, op := range plan.Ops {
			if op.Kind == qgraph.OpProj && len(op.Path) == 0 && rootVars[op.Src] && !rootVars[op.Var] {
				rootVars[op.Var] = true
				changed = true
			}
		}
	}
	projections := 0
	for _, op := range plan.Ops {
		switch op.Kind {
		case qgraph.OpSel, qgraph.OpExists:
			if rootVars[op.Var] {
				// A per-shard filter on the root keeps or drops that shard's
				// whole contribution; the union filters once, globally.
				return false, "filters on the document root"
			}
		case qgraph.OpJoin:
			if rootVars[op.Var] || rootVars[op.RVar] {
				return false, "joins through the document root"
			}
		case qgraph.OpProj:
			if rootVars[op.Src] && !rootVars[op.Var] {
				projections++
			}
		}
	}

	// Return-expression references to the root. Return paths are emitted
	// per result row, so a root reference there is a projection out of
	// the root too — and one with an empty path returns the root element
	// itself (N copies under scatter for the union's one).
	returnRefs := 0
	rootItself := false
	var walk func(items []xq.RetItem)
	walk = func(items []xq.RetItem) {
		for _, it := range items {
			switch it := it.(type) {
			case xq.RetPath:
				if rootVars[it.Term.Var] {
					returnRefs++
					if len(it.Term.Path.Steps) == 0 {
						rootItself = true
					}
				}
			case xq.RetElem:
				walk(it.Kids)
			}
		}
	}
	walk(plan.Return)
	if rootItself {
		// N shards would return N root elements for the union's one.
		return false, "returns the document root"
	}

	if projections > 0 {
		if projections > 1 {
			// Two independent projections form a cartesian product at the
			// root: sum-of-products per shard != product-of-sums in union.
			return false, "multiple projections below the document root"
		}
		if returnRefs > 0 {
			// Result rows are multiplied by the projection; a per-row root
			// reference would then re-emit shard-local context per row where
			// the union emits global context.
			return false, "multiple projections below the document root"
		}
		return true, ""
	}

	// No plan projection: every row is the root itself, one row per shard
	// vs. one in the union. The per-row emission cancels that mismatch
	// only when the whole return expression is a single root-rooted path
	// (shard answers then concatenate in document order); any constructed
	// element or extra item would be duplicated once per shard.
	if returnRefs == 0 {
		return false, "no projection below the document root"
	}
	if len(plan.Return) != 1 || returnRefs != 1 {
		return false, "multiple projections below the document root"
	}
	if _, flat := plan.Return[0].(xq.RetPath); !flat {
		return false, "constructs an element around the document root"
	}
	return true, ""
}

// bindsRoot reports whether a doc-rooted binding path can resolve to the
// root class itself. It mirrors the engine's resolveFromDoc seeding: a
// 1-step child-axis path is root-or-nothing; a 1-step descendant-axis
// path seeds the root when its name matches the root tag or is a
// wildcard. Two or more steps always land strictly below the root.
func bindsRoot(path []xq.Step, rootTag string) bool {
	if len(path) != 1 {
		return false
	}
	s := path[0]
	if s.Axis == xq.Child {
		return true
	}
	return s.Name == rootTag || s.Name == "*"
}
