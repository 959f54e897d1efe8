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
// from a paged one. The large case spans ten cancelCheckStride chunks of
// reader.Scan, so it also pins that loop to no allocation per chunk: a
// closure made per chunk costs one object each and fails the bound.
//
// The in-memory engine is allowed one object per chunk: vector.Mem.Scan
// allocates its value buffer once per call, and the reader calls it once
// per chunk (ROADMAP item 13 removes that buffer).
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
	const small, large = 200, 10 * cancelCheckStride
	smallDoc, largeDoc := doc(small), doc(large)
	for name, open := range engines {
		smallEng, largeEng := open(smallDoc), open(largeDoc)
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
			slack := 4.0
			if name == "mem" {
				slack += large/cancelCheckStride - 1
			}
			a0 := opAllocs(t, smallEng, plan, si)
			a1 := opAllocs(t, largeEng, plan, si)
			if a1 > a0+slack {
				t.Errorf("%s %s: selection over %d values allocated %.0f objects, over %d values %.0f (allowed +%.0f)", name, src, small, a0, large, a1, slack)
			}
		}
	}
}
