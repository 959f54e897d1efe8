package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"vxml/internal/datagen"
	"vxml/internal/vectorize"
)

// dataSeed seeds every dataset generator. The datasets define the
// workloads, so they are the same on every run; --seed drives only the
// schedule (see schedule.go). Otherwise run-to-run spread would measure
// how much two random TreeBanks differ, not the program.
const dataSeed = 20050405

// dataset is one generated document and how to make it.
type dataset struct {
	ID   string // XK, SS, ML or TB: the directory and golden-key prefix
	Spec string // generator and parameters, for the environment block and golden keys
	gen  func(io.Writer) error
}

func xmark(scale float64) dataset {
	return dataset{"XK", fmt.Sprintf("xmark scale=%g seed=%d", scale, dataSeed),
		datagen.XMark{Scale: scale, Seed: dataSeed}.Generate}
}

func skyserver(rows, cols, neighbors int) dataset {
	return dataset{"SS", fmt.Sprintf("skyserver rows=%d cols=%d neighbors=%d seed=%d", rows, cols, neighbors, dataSeed),
		datagen.SkyServerDB{Rows: rows, Cols: cols, NeighborRows: neighbors, Seed: dataSeed}.Generate}
}

func medline(citations int) dataset {
	return dataset{"ML", fmt.Sprintf("medline citations=%d seed=%d", citations, dataSeed),
		datagen.MedLine{Citations: citations, Seed: dataSeed}.Generate}
}

func treebank(sentences, depth int) dataset {
	return dataset{"TB", fmt.Sprintf("treebank sentences=%d depth=%d seed=%d", sentences, depth, dataSeed),
		datagen.TreeBank{Sentences: sentences, MaxDepth: depth, Seed: dataSeed}.Generate}
}

// sizes scales every workload. standard is what BENCHMARK.json measures;
// smoke is the same code at a size the tests run in seconds.
type sizes struct {
	Name string

	ColdRegular   []dataset
	ColdIrregular []dataset
	ColdPool      int // pages; smaller than the regular datasets' vectors

	ServeData        dataset
	ServeTexts       int // distinct query texts
	ServeResultCache int // 8x smaller than ServeTexts
	ServePlanCache   int

	IngestData       dataset
	FragmentScale    float64 // XMark scale of the document fragments are cut from
	FragmentPool     int     // distinct fragments
	FragmentAuctions int     // closed_auction elements per fragment (~10 KB)

	// OpsPerSecond is each workload's op rate on the reference host
	// (README.md); count = rate x --seconds, so a run's op count is fixed
	// by its arguments and repeats.
	OpsPerSecond map[string]float64
	// SetupPasses is how many times set-up is repeated; setup_s reports
	// the median pass.
	SetupPasses map[string]int
}

var standard = sizes{
	Name:          "standard",
	ColdRegular:   []dataset{xmark(5), skyserver(2500, 368, 1250), medline(12000)},
	ColdIrregular: []dataset{treebank(600, 5)},
	ColdPool:      1024,

	ServeData:        xmark(1),
	ServeTexts:       1024,
	ServeResultCache: 128,
	ServePlanCache:   4096,

	IngestData:       xmark(5),
	FragmentScale:    8,
	FragmentPool:     100,
	FragmentAuctions: 30,

	OpsPerSecond: map[string]float64{
		"cold_regular":   3.4,
		"cold_irregular": 3.4,
		"serve_zipf":     12000,
		"ingest_append":  385,
	},
	SetupPasses: map[string]int{
		"cold_regular":   3,
		"cold_irregular": 5,
		"serve_zipf":     9,
		"ingest_append":  7,
	},
}

var smoke = sizes{
	Name:          "smoke",
	ColdRegular:   []dataset{xmark(0.1), skyserver(60, 12, 30), medline(150)},
	ColdIrregular: []dataset{treebank(60, 4)},
	ColdPool:      64,

	ServeData:        xmark(0.1),
	ServeTexts:       64,
	ServeResultCache: 8,
	ServePlanCache:   256,

	IngestData:       xmark(0.1),
	FragmentScale:    0.2,
	FragmentPool:     6,
	FragmentAuctions: 10,

	OpsPerSecond: map[string]float64{
		"cold_regular":   12,
		"cold_irregular": 12,
		"serve_zipf":     600,
		"ingest_append":  36,
	},
	SetupPasses: map[string]int{
		"cold_regular":   1,
		"cold_irregular": 1,
		"serve_zipf":     1,
		"ingest_append":  1,
	},
}

// build generates d's XML into dir/<ID>.xml and vectorizes it into
// dir/<ID>, as `xmlgen` and `vxstore vectorize` would. It returns the XML
// size and the time inside vectorize.Create; the repository is left
// closed.
func (d dataset) build(dir string, opts vectorize.Options) (xmlBytes, createNS int64, err error) {
	xmlPath, repoDir := d.paths(dir)
	f, err := os.Create(xmlPath)
	if err != nil {
		return 0, 0, err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	if err := d.gen(w); err != nil {
		f.Close()
		return 0, 0, fmt.Errorf("generate %s: %w", d.Spec, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		return 0, 0, err
	}
	st, err := os.Stat(xmlPath)
	if err != nil {
		return 0, 0, err
	}
	in, err := os.Open(xmlPath)
	if err != nil {
		return 0, 0, err
	}
	defer in.Close()
	start := time.Now()
	repo, err := vectorize.Create(in, repoDir, opts)
	createNS = int64(time.Since(start))
	if err != nil {
		return 0, 0, fmt.Errorf("vectorize %s: %w", d.Spec, err)
	}
	return st.Size(), createNS, repo.Close()
}

func (d dataset) paths(dir string) (xmlPath, repoDir string) {
	return filepath.Join(dir, d.ID+".xml"), filepath.Join(dir, d.ID)
}
