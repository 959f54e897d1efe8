// TreeBank: querying highly irregular data. A parse-tree corpus
// decomposes into thousands of tiny vectors (the paper's TB: 221,545
// vectors from 54 MB); this example shows that path queries with
// qualifiers (TQ1) and descendant-axis joins (TQ2) still evaluate
// directly on the compressed representation.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"
	"time"

	"vxml/internal/core"
	"vxml/internal/datagen"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

func main() {
	// Generate and vectorize a 3,000-sentence corpus in memory.
	var doc strings.Builder
	if err := (datagen.TreeBank{Sentences: 3000, Seed: 7}).Generate(&doc); err != nil {
		log.Fatal(err)
	}
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc.String(), syms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("corpus: %.1f MB XML, %d document nodes\n", float64(len(doc.String()))/1e6, repo.Skel.ExpandedSize())
	fmt.Printf("irregularity: %d distinct vectors, %d skeleton nodes (ratio %.1f nodes/skel-node)\n\n",
		len(repo.Vectors.Names()), repo.Skel.NumNodes(),
		float64(repo.Skel.ExpandedSize())/float64(repo.Skel.NumNodes()))

	queries := []struct{ name, src string }{
		{"TQ1 (qualified path)", `/alltreebank/FILE/EMPTY/S/NP[JJ='Federal']`},
		{"TQ2 (descendant join)", `for $s in /alltreebank/FILE/EMPTY/S,
		   $nn in $s//NN, $vb in $s//VB
		   where $nn = $vb return $s/NP`},
		{"TQ3 (WHNP join)", `for $s in /alltreebank/FILE/EMPTY/S,
		   $n1 in $s/NP/NN, $n2 in $s//WHNP/NP/NN
		   where $n1 = $n2 return $s/NP/NN`},
	}
	for _, q := range queries {
		plan, err := qgraph.Build(xq.MustParse(q.src))
		if err != nil {
			log.Fatal(err)
		}
		eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{})
		start := time.Now()
		res, tr, err := eng.EvalTraced(context.Background(), plan)
		if err != nil {
			log.Fatal(err)
		}
		s := tr.Total
		var n int64
		for _, e := range res.Skel.Edges(res.Skel.Root) {
			n += e.Count
		}
		fmt.Printf("%-24s %8v  %5d results, touched %d of %d vectors\n",
			q.name, time.Since(start).Round(time.Microsecond), n, s.VectorsOpened, len(repo.Vectors.Names()))
	}
}
