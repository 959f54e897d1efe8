// Extensions: the three §6 future-work items the library implements on
// top of the paper — vector value indexes (selection lookups and
// index-nested-loop joins), per-page vector compression, and schema
// evolution (adding/removing a column without rewriting data vectors).
package main

import (
	"context"
	"fmt"
	"log"
	"os"
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
	// A 20,000-row table with a highly selective 'mode' column.
	var doc strings.Builder
	if err := (datagen.SkyServer{Rows: 20000, Cols: 30, Seed: 11}).Generate(&doc); err != nil {
		log.Fatal(err)
	}
	syms := xmlmodel.NewSymbols()
	repo, err := vectorize.FromString(doc.String(), syms)
	if err != nil {
		log.Fatal(err)
	}

	// --- 1. Vector value indexes -------------------------------------
	query := xq.MustParse(`for $r in /photoobj/row where $r/mode = '1' return $r/objid`)
	plan, err := qgraph.Build(query)
	if err != nil {
		log.Fatal(err)
	}
	run := func(eng *core.Engine) time.Duration {
		start := time.Now()
		if _, err := eng.Eval(context.Background(), plan); err != nil {
			log.Fatal(err)
		}
		return time.Since(start)
	}
	scanEng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{})
	scanTime := run(scanEng)
	idxEng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{})
	if _, err := idxEng.BuildVectorIndex("/photoobj/row/mode"); err != nil {
		log.Fatal(err)
	}
	idxTime := run(idxEng)
	fmt.Printf("selective lookup:  scan %v, indexed %v (%.0fx)\n",
		scanTime.Round(time.Microsecond), idxTime.Round(time.Microsecond),
		float64(scanTime)/float64(idxTime))

	// --- 2. Schema evolution ------------------------------------------
	// Drop 27 of the 30 columns and add a provenance column: no data
	// vector is rewritten — surviving vectors are shared, the new one is
	// constant, and only the (tiny) skeleton is rebuilt.
	view := repo.View()
	evolved := &vectorize.MemRepository{Syms: view.Syms, Skel: view.Skel, Classes: view.Classes, Vectors: view.Vectors}
	start := time.Now()
	for _, col := range repo.Classes.Children(repo.Classes.Resolve("/photoobj/row")) {
		path := repo.Classes.Path(col)
		switch {
		case strings.HasSuffix(path, "/#"), strings.HasSuffix(path, "objid"),
			strings.HasSuffix(path, "ra"), strings.HasSuffix(path, "dec"):
			continue
		}
		evolved, err = vectorize.DropPath(evolved.View(), path)
		if err != nil {
			log.Fatal(err)
		}
	}
	evolved, err = vectorize.AddColumn(evolved.View(), "/photoobj/row", "source", "SDSS-DR1")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("schema evolution:  30 -> %d columns in %v (vectors shared, none rewritten)\n",
		len(evolved.Vectors.Names()), time.Since(start).Round(time.Microsecond))

	plan2, _ := qgraph.Build(xq.MustParse(`for $r in /photoobj/row return $r/source`))
	eng := core.NewEngine(evolved.Skel, evolved.Classes, evolved.Vectors, syms, core.Options{})
	res, err := eng.Eval(context.Background(), plan2)
	if err != nil {
		log.Fatal(err)
	}
	var n int64
	for _, e := range res.Skel.Edges(res.Skel.Root) {
		n += e.Count
	}
	fmt.Printf("new column query:  %d rows all carry the added value\n", n)

	// --- 3. Compressed vectors ----------------------------------------
	for _, compress := range []bool{false, true} {
		dir := fmt.Sprintf("%s/ext-%v", tmpDir(), compress)
		r2, err := vectorize.Create(strings.NewReader(doc.String()), dir,
			vectorize.Options{PoolPages: 2048, Compress: compress})
		if err != nil {
			log.Fatal(err)
		}
		var diskBytes int64
		for _, fn := range r2.Store.Names() {
			f, _ := r2.Store.Open(fn)
			diskBytes += f.Size()
		}
		label := "plain     "
		if compress {
			label = "compressed"
		}
		fmt.Printf("%s vectors: %5.1f MB on disk\n", label, float64(diskBytes)/1e6)
		r2.Close()
	}
}

var tmp string

func tmpDir() string {
	if tmp == "" {
		var err error
		tmp, err = os.MkdirTemp("", "vxml-ext")
		if err != nil {
			log.Fatal(err)
		}
	}
	return tmp
}
