package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// evalIndexed evaluates with a vector index built on indexPath.
func evalIndexed(t *testing.T, doc, src, indexPath string) (string, obs.TaskCounters) {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc, syms)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	if _, err := eng.BuildVectorIndex(indexPath); err != nil {
		t.Fatal(err)
	}
	plan, err := qgraph.Build(xq.MustParse(src))
	if err != nil {
		t.Fatal(err)
	}
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, syms, &b); err != nil {
		t.Fatal(err)
	}
	return b.String(), tr.Total
}

func indexDoc() string {
	var b strings.Builder
	b.WriteString("<t>")
	vals := []string{"10", "40", "7", "40", "100", "3", "40", "55"}
	for i, v := range vals {
		b.WriteString("<r><p>" + v + "</p><v>V" + string(rune('0'+i)) + "</v></r>")
	}
	b.WriteString("</t>")
	return b.String()
}

// TestIndexedSelectionMatchesScan: every operator gives identical results
// with and without the index.
func TestIndexedSelectionMatchesScan(t *testing.T) {
	doc := indexDoc()
	for _, q := range []string{
		`for $r in /t/r where $r/p = 40 return $r/v`,
		`for $r in /t/r where $r/p != 40 return $r/v`,
		`for $r in /t/r where $r/p < 40 return $r/v`,
		`for $r in /t/r where $r/p <= 40 return $r/v`,
		`for $r in /t/r where $r/p > 40 return $r/v`,
		`for $r in /t/r where $r/p >= 40 return $r/v`,
		`for $r in /t/r where $r/p = 999 return $r/v`,
	} {
		indexed, _ := evalIndexed(t, doc, q, "/t/r/p")
		plain, _ := evalOn(t, doc, q, Options{})
		if indexed != resultXML(t, plain) {
			t.Errorf("%s:\nindexed: %s\nscan:    %s", q, indexed, resultXML(t, plain))
		}
	}
}

// TestIndexedSelectionSkipsScan: with an index the selection does not
// scan the predicate vector.
func TestIndexedSelectionSkipsScan(t *testing.T) {
	doc := indexDoc()
	_, st := evalIndexed(t, doc, `for $r in /t/r where $r/p = 40 return $r/v`, "/t/r/p")
	// ValuesScanned counts only result-construction reads (3 v values);
	// the p vector is served by the index.
	if st.ValuesScanned > 3 {
		t.Errorf("values scanned = %d, want <= 3", st.ValuesScanned)
	}
}

func TestBuildVectorIndexErrors(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(`<a><b><c>x</c></b></a>`, syms)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
	if _, err := eng.BuildVectorIndex("/a/missing"); err == nil {
		t.Error("index on missing path succeeded")
	}
	if _, err := eng.BuildVectorIndex("/a/b"); err == nil {
		t.Error("index on textless element succeeded")
	}
	if _, err := eng.BuildVectorIndex("/a/b/c"); err != nil {
		t.Errorf("index on text path failed: %v", err)
	}
}

func TestVectorIndexPositions(t *testing.T) {
	idx := &VectorIndex{
		vals: []string{"3", "7", "40", "40", "100"},
		pos:  []int64{5, 2, 1, 3, 4},
	}
	check := func(op xq.CmpOp, bound string, want []int64) {
		got := idx.Positions(op, bound)
		if len(got) != len(want) {
			t.Fatalf("%v %s: %v, want %v", op, bound, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%v %s: %v, want %v", op, bound, got, want)
				break
			}
		}
	}
	check(xq.OpEq, "40", []int64{1, 3})
	check(xq.OpLt, "40", []int64{2, 5})
	check(xq.OpGe, "40", []int64{1, 3, 4})
	check(xq.OpNe, "40", []int64{2, 4, 5})
	check(xq.OpEq, "999", nil)
}

// TestIndexProbeJoinMatchesScan: an equality join probed through a vector
// index returns exactly what the hash-join scan returns.
func TestIndexProbeJoinMatchesScan(t *testing.T) {
	var b strings.Builder
	b.WriteString("<db>")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&b, "<l><k>k%d</k><n>L</n></l>", i%17)
	}
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&b, "<r><k>k%d</k><m>R</m></r>", i%23)
	}
	b.WriteString("</db>")
	q := `for $l in /db/l, $r in /db/r where $l/k = $r/k return $l/n, $r/m`
	indexed, st := evalIndexed(t, b.String(), q, "/db/r/k")
	plain, _ := evalOn(t, b.String(), q, Options{})
	if indexed != resultXML(t, plain) {
		t.Errorf("index-probe join differs from scan join (len %d vs %d)", len(indexed), len(resultXML(t, plain)))
	}
	// The right-side k vector (300 values) is never scanned: reads are the
	// left gather (200) plus two output values per tuple.
	if got, want := st.ValuesScanned, 200+2*st.Tuples; got != want {
		t.Errorf("values scanned = %d, want %d (right side must not be scanned)", got, want)
	}
}
