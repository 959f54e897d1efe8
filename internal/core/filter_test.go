package core

import (
	"fmt"
	"strings"
	"testing"

	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// TestSelectionAllocsFlat: a selection reading N non-numeric values
// allocates nothing per value, against a text constant (MQ1's
// Language = 'dut') or a numeric one, from an in-memory repository and
// from a paged one.
func TestSelectionAllocsFlat(t *testing.T) {
	doc := func(n int) string {
		var b strings.Builder
		b.WriteString("<r>")
		for i := 0; i < n; i++ {
			fmt.Fprintf(&b, "<c><l>%s</l><k>x</k></c>", []string{"eng", "ger", "fre", "Federal"}[i%4])
		}
		b.WriteString("</r>")
		return b.String()
	}
	engines := map[string]func(doc string) *Engine{
		"mem": func(doc string) *Engine {
			syms := xmlmodel.NewSymbols()
			repo, err := vectorize.FromString(doc, syms)
			if err != nil {
				t.Fatal(err)
			}
			return NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, Options{})
		},
		"paged": func(doc string) *Engine {
			repo, err := vectorize.Create(strings.NewReader(doc), "repo", vectorize.Options{PoolPages: 64, FS: storage.NewMemFS()})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { repo.Close() })
			return NewRepoEngine(repo, Options{})
		},
	}
	for name, open := range engines {
		for _, src := range []string{
			`for $c in /r/c where $c/l = 'dut' return $c/k`,
			`for $c in /r/c where $c/l < 40 return $c/k`,
		} {
			plan, err := qgraph.Build(xq.MustParse(src))
			if err != nil {
				t.Fatal(err)
			}
			si := -1
			for i, op := range plan.Ops {
				if op.Kind == qgraph.OpSel {
					si = i
				}
			}
			if si < 0 {
				t.Fatalf("%s: no selection in the plan", src)
			}
			const small, large = 200, 4000
			a0 := opAllocs(t, open(doc(small)), plan, si)
			a1 := opAllocs(t, open(doc(large)), plan, si)
			if a1 > a0+4 {
				t.Errorf("%s %s: selection over %d values allocated %.0f objects, over %d values %.0f", name, src, small, a0, large, a1)
			}
		}
	}
}
