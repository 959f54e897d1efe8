package core

import (
	"context"
	"strings"
	"testing"

	"vxml/internal/datagen"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// forOrderDoc's b elements reference the p elements out of document
// order, so a join whose rows follow the b side is visibly misordered.
const forOrderDoc = `<r><p><id>1</id><n>a</n></p><p><id>2</id><n>b</n></p><p><id>3</id><n>c</n></p>` +
	`<q><m>x</m></q><q><m>y</m></q>` +
	`<b><ref>3</ref></b><b><ref>1</ref></b><b><ref>2</ref></b></r>`

// TestCrossJoinForOrder: a cross-table join emits its tuples in for-order
// (the earlier-bound table's rows major) however its condition is
// spelled, with or without a vector index on its right side, whether the
// later-bound side dies at the join or stays live, with a third table
// bound between the two, and for comparisons as for equalities.
func TestCrossJoinForOrder(t *testing.T) {
	cases := []struct{ src, want string }{
		{`for $p in /r/p, $b in /r/b where $b/ref = $p/id return $p/n`,
			`<result><n>a</n><n>b</n><n>c</n></result>`},
		{`for $p in /r/p, $b in /r/b where $p/id = $b/ref return $p/n`,
			`<result><n>a</n><n>b</n><n>c</n></result>`},
		{`for $p in /r/p, $b in /r/b where $b/ref = $p/id return $p/n, $b/ref`,
			`<result><n>a</n><ref>1</ref><n>b</n><ref>2</ref><n>c</n><ref>3</ref></result>`},
		{`for $p in /r/p, $b in /r/b where $b/ref = $p/id return $b/ref`,
			`<result><ref>1</ref><ref>2</ref><ref>3</ref></result>`},
		{`for $p in /r/p, $q in /r/q, $b in /r/b where $b/ref = $p/id return $p/n, $q/m`, ""},
		{`for $p in /r/p, $q in /r/q, $b in /r/b where $p/id = $b/ref return $p/n, $q/m, $b/ref`, ""},
		{`for $p in /r/p, $b in /r/b where $b/ref < $p/id return $p/n, $b/ref`, ""},
		{`for $p in /r/p, $b in /r/b where $b/ref >= $p/id return $b/ref`, ""},
		{`for $p in /r/p, $b in /r/b where $p/id != $b/ref return $p/n`, ""},
	}
	syms := xmlmodel.NewSymbols()
	tree, err := xmlmodel.ParseString(forOrderDoc, syms)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want, err := domResultXML(t, tree, syms, c.src)
		if err != nil {
			t.Fatal(err)
		}
		if c.want != "" && want != c.want {
			t.Fatalf("dom oracle: %s = %s, want %s", c.src, want, c.want)
		}
		for _, index := range []string{"", "/r/p/id", "/r/b/ref"} {
			var got string
			if index == "" {
				res, _ := evalOn(t, forOrderDoc, c.src, Options{})
				got = resultXML(t, res)
			} else {
				got, _ = evalIndexed(t, forOrderDoc, c.src, index)
			}
			if got != want {
				t.Errorf("%s (index %q):\n got %s\nwant %s", c.src, index, got, want)
			}
		}
	}
}

// joinShapes are the benchmark's KQ2/KQ3/MQ2 join shapes on small
// documents: the later-bound side dies at the join.
var joinShapes = []struct {
	name, src string
	paths     []string // the join paths' vectors; nil: scans and allocations not checked
	xmark     bool
}{
	{"KQ2", `for $p in /site/people/person, $b in /site/open_auctions/open_auction/bidder
	         where $b/personref/@person = $p/@id return $p/name`,
		[]string{"/site/people/person/@id", "/site/open_auctions/open_auction/bidder/personref/@person"}, true},
	{"KQ3", `for $p in /site/people/person, $b in /site/open_auctions/open_auction/bidder
	         where $b/personref/@person = $p/@id and $p/profile/@income > 50000 return $p/name`,
		nil, true},
	{"MQ2", `for $x in /MedlineCitationSet/MedlineCitation,
	             $y in /MedlineCitationSet/MedlineCitation/CommentCorrection/CommentOn
	         where $x/PMID = $y/PMID return $x/MedlineID`,
		[]string{"/MedlineCitationSet/MedlineCitation/PMID", "/MedlineCitationSet/MedlineCitation/CommentCorrection/CommentOn/PMID"}, false},
}

// TestCrossJoinCountsWithoutExpanding pins the cross-table equality
// join on the benchmark's join shapes, over on-disk repositories of small
// generated documents: when the later-bound side dies at the join its
// matches are counted into multiplicities, so no run is expanded; each
// join path's values are read once, and the join allocates fewer objects
// than it reads values (no string or row per value), on the KQ2 and MQ2
// shapes; and the result is the DOM interpreter's, byte for byte.
func TestCrossJoinCountsWithoutExpanding(t *testing.T) {
	var xk, ml strings.Builder
	if err := (datagen.XMark{Scale: 0.2, Seed: 1}).Generate(&xk); err != nil {
		t.Fatal(err)
	}
	if err := (datagen.MedLine{Citations: 2000, Seed: 1}).Generate(&ml); err != nil {
		t.Fatal(err)
	}
	for _, c := range joinShapes {
		doc := ml.String()
		if c.xmark {
			doc = xk.String()
		}
		repo, err := vectorize.Create(strings.NewReader(doc), "repo", vectorize.Options{PoolPages: 64, FS: storage.NewMemFS()})
		if err != nil {
			t.Fatal(err)
		}
		defer repo.Close()
		plan, err := qgraph.Build(xq.MustParse(c.src))
		if err != nil {
			t.Fatal(err)
		}
		eng := NewRepoEngine(repo, Options{})
		res, tr, err := eng.EvalTraced(context.Background(), plan)
		if err != nil {
			t.Fatal(err)
		}
		ji := len(plan.Ops) - 1
		if plan.Ops[ji].Kind != qgraph.OpJoin {
			t.Fatalf("%s: last op is %s, want the join", c.name, plan.Ops[ji])
		}
		js := tr.Ops[ji].Stats
		if js.RunsExpanded != 0 {
			t.Errorf("%s: join expanded %d runs, want 0", c.name, js.RunsExpanded)
		}
		if c.paths != nil {
			var want int64
			for _, p := range c.paths {
				want += eng.Classes.Count(eng.Classes.Resolve(p + "/#"))
			}
			if js.ValuesScanned != want {
				t.Errorf("%s: join scanned %d values, want %d (each join path's values once)", c.name, js.ValuesScanned, want)
			}
			if allocs := opAllocs(t, eng, plan, ji); allocs >= float64(js.ValuesScanned) {
				t.Errorf("%s: join allocated %.0f objects for %d values, want fewer than one per value", c.name, allocs, js.ValuesScanned)
			}
		}
		syms := xmlmodel.NewSymbols()
		tree, err := xmlmodel.ParseString(doc, syms)
		if err != nil {
			t.Fatal(err)
		}
		want, err := domResultXML(t, tree, syms, c.src)
		if err != nil {
			t.Fatal(err)
		}
		if got := resultXML(t, res); got != want {
			t.Errorf("%s: result differs from the DOM's (len %d vs %d)", c.name, len(got), len(want))
		}
	}
}

// opAllocs returns the allocations of plan's op ji: fresh evaluations
// run the ops up to and including it, less the same up to just before.
func opAllocs(t *testing.T, eng *Engine, plan *qgraph.Plan, ji int) float64 {
	upTo := func(n int) func() {
		return func() {
			p := *plan
			p.Ops = plan.Ops[:n]
			x := newEvalContext(eng, context.Background())
			defer x.closeReaders()
			if err := x.run(&p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return testing.AllocsPerRun(10, upTo(ji+1)) - testing.AllocsPerRun(10, upTo(ji))
}
