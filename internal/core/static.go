package core

// Static query checking against the path catalog. The vector catalog (the
// skeleton's class set) is exactly a path summary of the repository: every
// root-to-class path that occurs in the data has a class, and nothing else
// does. A query-graph edge whose step sequence matches no catalog path can
// therefore never contribute an instantiation, and because every plan
// operation is conjunctive, one empty edge makes the whole query result
// empty. CheckPlan decides this before evaluation touches a single vector:
// resolution walks only the in-memory catalog, and statically empty
// queries short-circuit to a bare result root with zero vector opens and
// zero pool faults.

import (
	"fmt"
	"slices"
	"strings"

	"vxml/internal/qgraph"
	"vxml/internal/skeleton"
)

// maxEdgePaths bounds how many matched catalog paths an EdgeCheck reports;
// a //-edge over a wide catalog can match hundreds.
const maxEdgePaths = 8

// An EdgeCheck is the static verdict for one path edge of the plan.
type EdgeCheck struct {
	Edge qgraph.PathEdge
	// Classes counts the catalog classes the edge can reach; Paths lists
	// (up to maxEdgePaths of) their catalog paths.
	Classes int
	Paths   []string
	Empty   bool
}

// A StaticCheck is the result of checking a plan against the catalog.
type StaticCheck struct {
	Edges []EdgeCheck
	// Empty reports the whole query is statically unsatisfiable; Reason
	// names the first empty edge.
	Empty  bool
	Reason string
}

// String renders the per-edge report, one line per edge.
func (sc *StaticCheck) String() string {
	var b strings.Builder
	for i, ec := range sc.Edges {
		if i > 0 {
			b.WriteByte('\n')
		}
		switch {
		case ec.Empty:
			fmt.Fprintf(&b, "edge %s: no matching catalog path", ec.Edge)
		case len(ec.Paths) < ec.Classes:
			fmt.Fprintf(&b, "edge %s: %d catalog paths (%s, ...)", ec.Edge, ec.Classes, strings.Join(ec.Paths, ", "))
		default:
			fmt.Fprintf(&b, "edge %s: %s", ec.Edge, strings.Join(ec.Paths, ", "))
		}
	}
	if sc.Empty {
		fmt.Fprintf(&b, "\nstatically empty: %s", sc.Reason)
	}
	return b.String()
}

// CheckPlan validates every path edge of the plan against the repository's
// path catalog, rewriting wildcard and descendant steps to the concrete
// catalog classes they can match. The walk mirrors evaluation exactly —
// bind resolves from the document root, proj/sel/exists/join resolve
// relative to the source variable's classes, and value edges additionally
// require a text child — and resolution is pure, so checking is free of
// evaluation side effects (no stats, no vectors).
func (e *Engine) CheckPlan(plan *qgraph.Plan) *StaticCheck {
	sc := &StaticCheck{}
	classes := make(map[string][]skeleton.ClassID)
	for _, pe := range plan.PathEdges() {
		var targets []skeleton.ClassID
		if pe.Kind == qgraph.OpBind {
			for _, c := range e.resolveFromDoc(pe.Path) {
				if e.Classes.Count(c) > 0 { // opBind skips never-occurring classes
					targets = append(targets, c)
				}
			}
		} else {
			for _, src := range classes[pe.Src] {
				targets = append(targets, e.resolveTargets(src, pe.Path)...)
			}
			slices.Sort(targets)
			targets = slices.Compact(targets)
		}
		if pe.Value {
			// Value edges compare text: a target with no text child can
			// never produce a value (mirrors selChains' text filtering).
			kept := targets[:0]
			for _, c := range targets {
				if e.textTarget(c) != skeleton.NoClass {
					kept = append(kept, c)
				}
			}
			targets = kept
		}
		ec := EdgeCheck{Edge: pe, Classes: len(targets), Empty: len(targets) == 0}
		for i, c := range targets {
			if i == maxEdgePaths {
				break
			}
			ec.Paths = append(ec.Paths, e.Classes.Path(c))
		}
		sc.Edges = append(sc.Edges, ec)
		if ec.Empty && !sc.Empty {
			sc.Empty = true
			sc.Reason = fmt.Sprintf("no catalog path matches %s", pe)
		}
		if pe.Dst != "" {
			classes[pe.Dst] = targets
		}
	}
	return sc
}
