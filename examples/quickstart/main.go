// Quickstart: vectorize the paper's Fig. 1 bibliography, inspect the
// decomposition (compressed skeleton + data vectors), and run the worked
// example query Q0 of §3.1, printing both the result document and its
// vectorized representation — reproducing Figs. 2 and 3 of the paper.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"vxml/internal/core"
	"vxml/internal/qgraph"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

const bibXML = `<bib>
  <book><publisher>SBP</publisher><author>RH</author><title>Curation</title></book>
  <book><publisher>SBP</publisher><author>RH</author><title>XML</title></book>
  <book><publisher>AW</publisher><author>SB</author><title>AXML</title></book>
  <article><author>BC</author><title>P2P</title></article>
  <article><author>RH</author><author>BC</author><title>XStore</title></article>
  <article><author>DD</author><author>RH</author><title>XPath</title></article>
</bib>`

const q0 = `<result>
for $d in doc("bib.xml")/bib,
    $b in $d/book,
    $a in $d/article
where $b/author = $a/author and
      $b/publisher = 'SBP'
return $b/title, $a/title
</result>`

func main() {
	// 1. Vectorize: one pass builds the hash-consed skeleton DAG and the
	// per-path data vectors (Fig. 2).
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(bibXML, syms)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("== compressed skeleton (Fig. 2a) ==")
	fmt.Print(repo.Skel.String(syms))
	fmt.Printf("(%d unique nodes, %d edges for %d document nodes)\n\n",
		repo.Skel.NumNodes(), repo.Skel.NumEdges(), repo.Skel.ExpandedSize())

	fmt.Println("== data vectors (Fig. 2b) ==")
	for _, name := range repo.Vectors.Names() {
		v, _ := repo.Vectors.Vector(name)
		vals, _ := vector.All(v)
		fmt.Printf("%-22s %v\n", name, vals)
	}

	// 2. Compile Q0 to a query graph + reduction plan (Fig. 3c, Ex. 4.1).
	q := xq.MustParse(q0)
	plan, err := qgraph.Build(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n== query graph ==")
	fmt.Print(qgraph.GraphOf(plan).String())
	fmt.Println("\n== reduction plan ==")
	fmt.Println(plan.String())

	// 3. Evaluate by graph reduction — no decompression of the input.
	eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{})
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n== result document (Fig. 3a) ==")
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, syms, os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	fmt.Println("\n== vectorized result (Fig. 3b) ==")
	fmt.Print(res.Skel.String(syms))
	for _, name := range res.Vectors.Names() {
		v, _ := res.Vectors.Vector(name)
		vals, _ := vector.All(v)
		fmt.Printf("%-22s %v\n", name, vals)
	}
	s := tr.Total
	fmt.Printf("\n%d tuples; scanned %d values across %d vectors\n",
		s.Tuples, s.ValuesScanned, s.VectorsOpened)
}
