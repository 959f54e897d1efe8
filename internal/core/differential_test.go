package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"vxml/internal/dom"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// The differential suite checks the graph-reduction engine against the
// node-at-a-time DOM interpreter on random documents and random queries.
// For child-axis queries results must match exactly (including order and
// duplicates); for descendant-axis queries the engine groups matches by
// path class, so results are compared as sorted multisets.

var diffTags = []string{"a", "b", "c"}
var diffValues = []string{"x", "y", "z", "10", "40"}

func genDoc(r *rand.Rand, syms *xmlmodel.Symbols) *xmlmodel.Node {
	root := xmlmodel.NewElem(syms.Intern("root"))
	var gen func(n *xmlmodel.Node, depth int)
	gen = func(n *xmlmodel.Node, depth int) {
		kids := r.Intn(4)
		for i := 0; i < kids; i++ {
			if depth >= 3 || r.Intn(3) == 0 {
				leaf := xmlmodel.NewElem(syms.Intern(diffTags[r.Intn(len(diffTags))]))
				leaf.Append(xmlmodel.NewText(diffValues[r.Intn(len(diffValues))]))
				n.Append(leaf)
			} else {
				el := xmlmodel.NewElem(syms.Intern(diffTags[r.Intn(len(diffTags))]))
				gen(el, depth+1)
				n.Append(el)
			}
		}
	}
	gen(root, 0)
	return root
}

// genPath returns a random relative path of 1-2 child steps.
func genPath(r *rand.Rand) string {
	n := 1 + r.Intn(2)
	var parts []string
	for i := 0; i < n; i++ {
		parts = append(parts, diffTags[r.Intn(len(diffTags))])
	}
	return strings.Join(parts, "/")
}

func genQuery(r *rand.Rand, allowDescendant bool) string {
	ops := []string{"=", "!=", "<", ">="}
	var b strings.Builder
	axis := "/"
	if allowDescendant && r.Intn(2) == 0 {
		axis = "//"
	}
	fmt.Fprintf(&b, "for $x in /root%s%s", axis, diffTags[r.Intn(len(diffTags))])
	nvars := r.Intn(2)
	for i := 0; i < nvars; i++ {
		fmt.Fprintf(&b, ", $v%d in $x/%s", i, genPath(r))
	}
	var conds []string
	nconds := r.Intn(2)
	for i := 0; i < nconds; i++ {
		switch r.Intn(3) {
		case 0:
			conds = append(conds, fmt.Sprintf("$x/%s %s '%s'", genPath(r), ops[r.Intn(len(ops))], diffValues[r.Intn(len(diffValues))]))
		case 1:
			if nvars > 0 {
				conds = append(conds, fmt.Sprintf("$v%d %s '%s'", r.Intn(nvars), ops[r.Intn(len(ops))], diffValues[r.Intn(len(diffValues))]))
			}
		default:
			if nvars > 0 {
				conds = append(conds, fmt.Sprintf("$x/%s = $v%d", genPath(r), r.Intn(nvars)))
			} else {
				conds = append(conds, fmt.Sprintf("$x/%s = $x/%s", genPath(r), genPath(r)))
			}
		}
	}
	if len(conds) > 0 {
		b.WriteString(" where " + strings.Join(conds, " and "))
	}
	switch r.Intn(3) {
	case 0:
		b.WriteString(" return $x")
	case 1:
		fmt.Fprintf(&b, " return $x/%s", genPath(r))
	default:
		if nvars > 0 {
			b.WriteString(" return $v0")
		} else {
			b.WriteString(" return $x")
		}
	}
	return b.String()
}

func engineResultXML(t *testing.T, tree *xmlmodel.Node, syms *xmlmodel.Symbols, src string) (string, error) {
	repo, err := vectorize.FromTree(tree, syms)
	if err != nil {
		return "", err
	}
	q, err := xq.Parse(src)
	if err != nil {
		return "", fmt.Errorf("parse: %w", err)
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		return "", fmt.Errorf("plan: %w", err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	res, err := eng.Eval(context.Background(), plan)
	if err != nil {
		return "", fmt.Errorf("eval: %w", err)
	}
	var b strings.Builder
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b); err != nil {
		return "", fmt.Errorf("reconstruct: %w", err)
	}
	return b.String(), nil
}

func domResultXML(t *testing.T, tree *xmlmodel.Node, syms *xmlmodel.Symbols, src string) (string, error) {
	q, err := xq.Parse(src)
	if err != nil {
		return "", err
	}
	out, err := dom.NewEvaluator(tree, syms).Eval(q)
	if err != nil {
		return "", err
	}
	return xmlmodel.TreeString(out, syms), nil
}

// canonicalize splits the result root's children into serialized pieces
// and sorts them, for order-insensitive comparison.
func canonicalize(t *testing.T, doc string, syms *xmlmodel.Symbols) string {
	root, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		t.Fatalf("canonicalize parse %q: %v", doc, err)
	}
	var parts []string
	for _, k := range root.Kids {
		parts = append(parts, xmlmodel.TreeString(k, syms))
	}
	sort.Strings(parts)
	return strings.Join(parts, "|")
}

func TestDifferentialChildAxis(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	failures := 0
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := genDoc(r, syms)
		src := genQuery(r, false)
		got, err1 := engineResultXML(t, tree, syms, src)
		want, err2 := domResultXML(t, tree, syms, src)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: engine err %v, dom err %v\nquery: %s", seed, err1, err2, src)
		}
		if got != want {
			failures++
			t.Errorf("seed %d mismatch\nquery: %s\ndoc: %s\nengine: %s\ndom:    %s",
				seed, src, xmlmodel.TreeString(tree, syms), got, want)
			if failures > 3 {
				t.Fatal("too many failures")
			}
		}
	}
}

func TestDifferentialDescendantAxis(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	failures := 0
	for seed := int64(1000); seed < 1300; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := genDoc(r, syms)
		src := genQuery(r, true)
		got, err1 := engineResultXML(t, tree, syms, src)
		want, err2 := domResultXML(t, tree, syms, src)
		if err1 != nil || err2 != nil {
			t.Fatalf("seed %d: engine err %v, dom err %v\nquery: %s", seed, err1, err2, src)
		}
		if canonicalize(t, got, syms) != canonicalize(t, want, syms) {
			failures++
			t.Errorf("seed %d multiset mismatch\nquery: %s\ndoc: %s\nengine: %s\ndom:    %s",
				seed, src, xmlmodel.TreeString(tree, syms), got, want)
			if failures > 3 {
				t.Fatal("too many failures")
			}
		}
	}
}

// TestDifferentialAblations: engine options must not change results
// (except FilterOnlyJoins, which is intentionally lossy on cross-table
// joins — checked separately in engine_test.go).
func TestDifferentialAblations(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	for seed := int64(2000); seed < 2100; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := genDoc(r, syms)
		src := genQuery(r, false)
		base, err := engineResultXML(t, tree, syms, src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		repo, _ := vectorize.FromTree(tree, syms)
		plan, _ := qgraph.Build(xq.MustParse(src))
		eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{NoRunCompression: true})
		res, err := eng.Eval(context.Background(), plan)
		if err != nil {
			t.Fatalf("seed %d (norun): %v", seed, err)
		}
		var b strings.Builder
		vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b)
		if b.String() != base {
			t.Errorf("seed %d: NoRunCompression changed result\nquery: %s\nbase: %s\ngot:  %s",
				seed, src, base, b.String())
		}
	}
}

// TestDifferentialIndexInvariance: building vector indexes on arbitrary
// paths never changes any query's result.
func TestDifferentialIndexInvariance(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	for seed := int64(3000); seed < 3150; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := genDoc(r, syms)
		src := genQuery(r, false)
		base, err := engineResultXML(t, tree, syms, src)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		repo, _ := vectorize.FromTree(tree, syms)
		plan, _ := qgraph.Build(xq.MustParse(src))
		eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
		// Index every text-bearing class.
		for _, tc := range repo.Classes.TextClasses() {
			eng.BuildVectorIndex(repo.Classes.VectorName(tc))
		}
		res, err := eng.Eval(context.Background(), plan)
		if err != nil {
			t.Fatalf("seed %d (indexed): %v", seed, err)
		}
		var b strings.Builder
		vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b)
		if b.String() != base {
			t.Errorf("seed %d: indexes changed the result\nquery: %s\nbase:    %s\nindexed: %s",
				seed, src, base, b.String())
		}
	}
}

// TestDifferentialFilterOnlySuperset: the filter-only join ablation's
// result items are always a superset of the correct result's items.
func TestDifferentialFilterOnlySuperset(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	for seed := int64(4000); seed < 4100; seed++ {
		r := rand.New(rand.NewSource(seed))
		tree := genDoc(r, syms)
		// Force a cross-table join query.
		src := fmt.Sprintf(
			"for $x in /root/%s, $y in /root/%s where $x/%s = $y/%s return $x, $y",
			diffTags[r.Intn(len(diffTags))], diffTags[r.Intn(len(diffTags))],
			genPath(r), genPath(r))
		repo, _ := vectorize.FromTree(tree, syms)
		plan, err := qgraph.Build(xq.MustParse(src))
		if err != nil {
			t.Fatal(err)
		}
		count := func(opts Options) int64 {
			eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, opts)
			res, err := eng.Eval(context.Background(), plan)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			var n int64
			for _, e := range res.Skel.Edges(res.Skel.Root) {
				n += e.Count
			}
			return n
		}
		exact := count(Options{})
		loose := count(Options{FilterOnlyJoins: true})
		if loose < exact {
			t.Errorf("seed %d: filter-only produced FEWER items (%d < %d)\nquery: %s",
				seed, loose, exact, src)
		}
	}
}
