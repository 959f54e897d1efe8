package testgen

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// TestQueriesStayInPlannerFragment: every generated query must parse and
// plan. A planner rejection means the generator stepped outside the
// supported fragment (nested qualifiers, qualifiers in conditions, ...),
// which would silently shrink differential coverage.
func TestQueriesStayInPlannerFragment(t *testing.T) {
	cfg := DefaultQueryConfig()
	sawUnordered, sawOrdered, sawTemplate, sawQual := false, false, false, false
	for seed := int64(0); seed < 2000; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := NewQuery(r, cfg)
		parsed, err := xq.Parse(q.Src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\nquery: %s", seed, err, q.Src)
		}
		if _, err := qgraph.Build(parsed); err != nil {
			t.Fatalf("seed %d: plan: %v\nquery: %s", seed, err, q.Src)
		}
		if q.Ordered {
			sawOrdered = true
		} else {
			sawUnordered = true
		}
		sawTemplate = sawTemplate || strings.Contains(q.Src, "<item>")
		sawQual = sawQual || strings.Contains(q.Src, "[")
	}
	if !sawOrdered || !sawUnordered || !sawTemplate || !sawQual {
		t.Errorf("coverage gap: ordered=%v unordered=%v template=%v qualifier=%v",
			sawOrdered, sawUnordered, sawTemplate, sawQual)
	}
}

// TestOrderedFlagIsSound: a query marked Ordered must contain no '*' or
// '//' anywhere and its bindings must form a chain (each rooted at the
// variable bound immediately before it) — exactly the constructs that let
// the engine permute results relative to FLWR nested-loop order.
func TestOrderedFlagIsSound(t *testing.T) {
	cfg := DefaultQueryConfig()
	for seed := int64(5000); seed < 7000; seed++ {
		r := rand.New(rand.NewSource(seed))
		q := NewQuery(r, cfg)
		hasUnorderedStep := strings.Contains(q.Src, "//") || strings.Contains(q.Src, "*")
		parsed, err := xq.Parse(q.Src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\nquery: %s", seed, err, q.Src)
		}
		chain := true
		for i, b := range parsed.Bindings {
			if i > 0 && b.Term.Var != parsed.Bindings[i-1].Var {
				chain = false
			}
		}
		if q.Ordered && (hasUnorderedStep || !chain) {
			t.Fatalf("seed %d: marked ordered but unordered-shaped (steps=%v chain=%v): %s",
				seed, hasUnorderedStep, chain, q.Src)
		}
		if !q.Ordered && !hasUnorderedStep && chain {
			t.Fatalf("seed %d: marked unordered but chain-shaped child-axis: %s", seed, q.Src)
		}
	}
}

// TestDocsVectorizeAndRunCompress: every generated document vectorizes,
// and the MaxRun knob actually produces consecutive same-tag sibling runs
// (the run-compressible shape) in a healthy fraction of documents.
func TestDocsVectorizeAndRunCompress(t *testing.T) {
	cfg := DefaultDocConfig()
	withRuns := 0
	const docs = 200
	for seed := int64(0); seed < docs; seed++ {
		r := rand.New(rand.NewSource(seed))
		syms := xmlmodel.NewSymbols()
		tree := Doc(r, cfg, syms)
		if _, err := vectorize.FromTree(tree, syms); err != nil {
			t.Fatalf("seed %d: vectorize: %v", seed, err)
		}
		if hasSiblingRun(tree) {
			withRuns++
		}
	}
	if withRuns < docs/2 {
		t.Errorf("only %d/%d documents contain a same-tag sibling run; run knob is not biting", withRuns, docs)
	}
}

func hasSiblingRun(n *xmlmodel.Node) bool {
	for i := 1; i < len(n.Kids); i++ {
		a, b := n.Kids[i-1], n.Kids[i]
		if !a.IsText() && !b.IsText() && a.Tag == b.Tag {
			return true
		}
	}
	for _, k := range n.Kids {
		if hasSiblingRun(k) {
			return true
		}
	}
	return false
}

// TestCrossSliceShapes: the cross-table slice's queries stay in the
// planner's fragment and cover what it is for — two and three
// document-rooted bindings, joins written later-bound side first and
// earlier first, with two bindings a dead later side, a dead earlier
// side and both live, ordered and multiset comparisons — and over its
// documents the joins do match: a good share of the results is non-empty.
func TestCrossSliceShapes(t *testing.T) {
	cfg := CrossQueryConfig()
	saw := map[string]bool{}
	nonEmpty := 0
	const queries = 2000
	for seed := int64(0); seed < queries; seed++ {
		r := rand.New(rand.NewSource(seed))
		syms := xmlmodel.NewSymbols()
		tree := Doc(r, CrossDocConfig(), syms)
		q := NewQuery(r, cfg)
		parsed, err := xq.Parse(q.Src)
		if err != nil {
			t.Fatalf("seed %d: parse: %v\nquery: %s", seed, err, q.Src)
		}
		plan, err := qgraph.Build(parsed)
		if err != nil {
			t.Fatalf("seed %d: plan: %v\nquery: %s", seed, err, q.Src)
		}
		if q.Ordered && (strings.Contains(q.Src, "//") || strings.Contains(q.Src, "*")) {
			t.Fatalf("seed %d: marked ordered with a '//' or '*' step: %s", seed, q.Src)
		}
		rank := map[string]int{}
		for i, b := range parsed.Bindings {
			if b.Term.Var != "" {
				t.Fatalf("seed %d: binding %s is not document-rooted: %s", seed, b.Var, q.Src)
			}
			rank[b.Var] = i
		}
		saw[fmt.Sprintf("%d bindings", len(parsed.Bindings))] = true
		saw[fmt.Sprintf("ordered=%v", q.Ordered)] = true
		for _, c := range parsed.Conds {
			if c.Right.Term != nil {
				saw[fmt.Sprintf("later first=%v", rank[c.Left.Term.Var] > rank[c.Right.Term.Var])] = true
			}
		}
		if len(parsed.Bindings) == 2 {
			live := map[string]bool{}
			for _, v := range plan.OutputVars {
				live[v] = true
			}
			saw[fmt.Sprintf("earlier live=%v later live=%v", live["$x"], live["$y"])] = true
		}
		if seed < 300 {
			repo, err := vectorize.FromTree(tree, syms)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.NewMemEngine(repo, core.Options{}).Eval(context.Background(), plan)
			if err != nil {
				t.Fatalf("seed %d: %v\nquery: %s", seed, err, q.Src)
			}
			if len(res.Skel.Edges(res.Skel.Root)) > 0 {
				nonEmpty++
			}
		}
	}
	for _, want := range []string{"2 bindings", "3 bindings", "ordered=true", "ordered=false",
		"later first=true", "later first=false",
		"earlier live=true later live=false", "earlier live=false later live=true", "earlier live=true later live=true"} {
		if !saw[want] {
			t.Errorf("cross slice never drew %q", want)
		}
	}
	if nonEmpty < 300/4 {
		t.Errorf("only %d/300 cross-table queries answered non-empty; the joins rarely match", nonEmpty)
	}
}
