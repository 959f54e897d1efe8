package testgen

import (
	"context"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/naive"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// The randomized differential harness: for each pair seed we generate a
// random document and a random query, evaluate the query both with the
// graph-reduction engine (internal/core) and with the
// decompress-evaluate-revectorize baseline (internal/naive), and compare
// the serialized results. Child-axis queries must match byte for byte
// (order and duplicates included); queries using '*' or '//' are compared
// as sorted multisets of top-level result items, because the engine
// groups such matches by path class. A fixed 1-in-8 slice of pairs
// (seed%8 == 0) is also evaluated over on-disk repositories, in both
// vector formats, and must answer byte for byte as the in-memory engine
// does. The wide slice (seed%8 == 4) draws from WideDocConfig and
// WideQueryConfig. The descendant slice (seed%8 == 2) draws from
// DescendantDocConfig and DescendantQueryConfig and is also evaluated on
// disk. The cross-table slice (seed%8 == 6) draws from CrossDocConfig and
// CrossQueryConfig — document-rooted bindings joined across their
// instantiation tables — and is also evaluated on disk.
//
// Knobs (environment):
//
//	VXDIFF_SEED   base seed; pair i uses seed VXDIFF_SEED+i (default 1)
//	VXDIFF_PAIRS  number of pairs (default 1000)
//
// On a mismatch the test logs the exact pair seed; reproduce with
//
//	VXDIFF_SEED=<pair seed> VXDIFF_PAIRS=1 go test ./internal/testgen -run TestDifferentialEngineVsNaive -v

func envInt64(name string, def int64) int64 {
	if s := os.Getenv(name); s != "" {
		if v, err := strconv.ParseInt(s, 10, 64); err == nil {
			return v
		}
	}
	return def
}

func TestDifferentialEngineVsNaive(t *testing.T) {
	baseSeed := envInt64("VXDIFF_SEED", 1)
	pairs := envInt64("VXDIFF_PAIRS", 1000)
	t.Logf("differential: base seed %d, %d pairs", baseSeed, pairs)
	failures := 0
	for i := int64(0); i < pairs; i++ {
		if !diffPair(t, baseSeed+i) {
			failures++
			if failures >= 5 {
				t.Fatalf("stopping after %d failing pairs", failures)
			}
		}
	}
}

// diffPair runs one (document, query) pair and reports success. All
// diagnostics carry the pair seed so failures reproduce from the log line
// alone.
func diffPair(t *testing.T, seed int64) bool {
	r := rand.New(rand.NewSource(seed))
	syms := xmlmodel.NewSymbols()
	docCfg, queryCfg := DefaultDocConfig(), DefaultQueryConfig()
	wide, desc, cross := seed%8 == 4, seed%8 == 2, seed%8 == 6
	switch {
	case wide:
		docCfg, queryCfg = WideDocConfig(), WideQueryConfig()
	case desc:
		docCfg, queryCfg = DescendantDocConfig(), DescendantQueryConfig()
	case cross:
		docCfg, queryCfg = CrossDocConfig(), CrossQueryConfig()
	}
	tree := Doc(r, docCfg, syms)
	q := NewQuery(r, queryCfg)

	parsed, err := xq.Parse(q.Src)
	if err != nil {
		t.Errorf("pair seed %d: parse: %v\nquery: %s", seed, err, q.Src)
		return false
	}
	plan, err := qgraph.Build(parsed)
	if err != nil {
		t.Errorf("pair seed %d: plan: %v\nquery: %s", seed, err, q.Src)
		return false
	}
	repo, err := vectorize.FromTree(tree, syms)
	if err != nil {
		t.Errorf("pair seed %d: vectorize: %v", seed, err)
		return false
	}

	eng := core.NewEngine(repo.Skel, repo.Classes, repo.Vectors, syms, core.Options{})
	eres, engErr := eng.Eval(context.Background(), plan)
	nres, naiveErr := naive.Eval(repo.Skel, repo.Classes, repo.Vectors, syms, parsed, 0)
	if engErr != nil || naiveErr != nil {
		t.Errorf("pair seed %d: engine err %v, naive err %v\nquery: %s", seed, engErr, naiveErr, q.Src)
		return false
	}

	var eb, nb strings.Builder
	if err := vectorize.ReconstructXML(eres.Skel, eres.Classes, eres.Vectors, eres.Syms, &eb); err != nil {
		t.Errorf("pair seed %d: reconstruct engine result: %v", seed, err)
		return false
	}
	if err := vectorize.ReconstructXML(nres.Skel, nres.Classes, nres.Vectors, nres.Syms, &nb); err != nil {
		t.Errorf("pair seed %d: reconstruct naive result: %v", seed, err)
		return false
	}

	got, want := eb.String(), nb.String()

	// Serving-layer coherence under randomized load: the same pair through
	// a cached core.Service must evaluate once, serve the repeat from the
	// result cache, and return byte-identical XML both times (and the same
	// bytes the bare engine produced).
	svc := core.NewMemService(repo, core.ServiceConfig{PlanCacheSize: 4, ResultCacheSize: 4})
	cold, coldSrc, err := svc.Query(context.Background(), q.Src)
	if err != nil {
		t.Errorf("pair seed %d: service cold query: %v\nquery: %s", seed, err, q.Src)
		return false
	}
	coldXML, err := cold.XML()
	if err != nil {
		t.Errorf("pair seed %d: service cold XML: %v", seed, err)
		return false
	}
	cached, cachedSrc, err := svc.Query(context.Background(), q.Src)
	if err != nil {
		t.Errorf("pair seed %d: service cached query: %v\nquery: %s", seed, err, q.Src)
		return false
	}
	cachedXML, err := cached.XML()
	if err != nil {
		t.Errorf("pair seed %d: service cached XML: %v", seed, err)
		return false
	}
	if coldSrc != core.SourceEval || !cachedSrc.Cached() {
		t.Errorf("pair seed %d: service sources cold=%v cached=%v, want eval then cached\nquery: %s",
			seed, coldSrc, cachedSrc, q.Src)
		return false
	}
	if coldXML != got {
		t.Errorf("pair seed %d: service result diverged from engine result\nquery: %s\nservice: %s\nengine:  %s",
			seed, q.Src, coldXML, got)
		return false
	}
	if cachedXML != coldXML {
		t.Errorf("pair seed %d: cached result not byte-identical to cold result\nquery: %s\ncold:   %s\ncached: %s",
			seed, q.Src, coldXML, cachedXML)
		return false
	}

	if seed%8 == 0 || desc || cross {
		for _, compress := range []bool{false, true} {
			if !diskPair(t, seed, xmlmodel.TreeString(tree, syms), plan, compress, got) {
				return false
			}
		}
	}

	// Static-checker soundness under randomized load: CheckPlan may only
	// call a query statically empty when the naive baseline also answers
	// with a bare result root. A rejection of any non-empty answer is a
	// hole in the catalog-matching logic, not a tolerable approximation.
	if sc := eng.CheckPlan(plan); sc.Empty && !bareRoot(want, plan.ResultTag) {
		t.Errorf("pair seed %d: static checker rejected a query the naive baseline answers\nquery: %s\nreason: %s\nnaive: %s",
			seed, q.Src, sc.Reason, want)
		return false
	}
	if q.Ordered {
		if got != want {
			t.Errorf("pair seed %d: mismatch (exact)\nquery: %s\ndoc: %s\nengine: %s\nnaive:  %s",
				seed, q.Src, xmlmodel.TreeString(tree, syms), got, want)
			return false
		}
		return true
	}
	gc, ok1 := canonicalForm(t, got, syms)
	nc, ok2 := canonicalForm(t, want, syms)
	if !ok1 || !ok2 {
		t.Errorf("pair seed %d: canonicalization failed\nquery: %s", seed, q.Src)
		return false
	}
	if gc != nc {
		t.Errorf("pair seed %d: mismatch (multiset)\nquery: %s\ndoc: %s\nengine: %s\nnaive:  %s",
			seed, q.Src, xmlmodel.TreeString(tree, syms), got, want)
		return false
	}
	return true
}

// diskPair vectorizes doc into an on-disk repository (on an in-memory
// filesystem) with raw or DEFLATE-compressed vectors and a 4-page buffer
// pool, so scans fault and evict pages, and checks that the engine answers
// plan there exactly as it did over the in-memory repository (want).
func diskPair(t *testing.T, seed int64, doc string, plan *qgraph.Plan, compress bool, want string) bool {
	opts := vectorize.Options{PoolPages: 4, Compress: compress, FS: storage.NewMemFS()}
	repo, err := vectorize.Create(strings.NewReader(doc), "repo", opts)
	if err != nil {
		t.Errorf("pair seed %d: disk vectorize (compress=%v): %v", seed, compress, err)
		return false
	}
	defer repo.Close()
	res, err := core.NewRepoEngine(repo, core.Options{}).Eval(context.Background(), plan)
	if err != nil {
		t.Errorf("pair seed %d: disk engine (compress=%v): %v", seed, compress, err)
		return false
	}
	var b strings.Builder
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &b); err != nil {
		t.Errorf("pair seed %d: reconstruct disk result (compress=%v): %v", seed, compress, err)
		return false
	}
	if b.String() != want {
		t.Errorf("pair seed %d: disk result (compress=%v) diverged from in-memory result\ndisk:   %s\nmemory: %s",
			seed, compress, b.String(), want)
		return false
	}
	return true
}

// canonicalForm renders the result with every element's child list sorted
// recursively — a deep multiset comparison. Queries with '*' or '//' let
// the engine group matches by path class at every template hole, not just
// at the result root, so order must be ignored at every depth; node
// content, structure and multiplicities are still compared exactly.
func canonicalForm(t *testing.T, doc string, syms *xmlmodel.Symbols) (string, bool) {
	root, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		t.Logf("canonicalize parse %q: %v", doc, err)
		return "", false
	}
	return canonicalNode(root, syms), true
}

func canonicalNode(n *xmlmodel.Node, syms *xmlmodel.Symbols) string {
	if n.IsText() {
		return "t:" + n.Text
	}
	parts := make([]string, len(n.Kids))
	for i, k := range n.Kids {
		parts[i] = canonicalNode(k, syms)
	}
	sort.Strings(parts)
	return syms.Name(n.Tag) + "(" + strings.Join(parts, "|") + ")"
}

// bareRoot reports whether the rendered XML is an empty result element —
// the canonical shape of a statically-empty answer.
func bareRoot(xml, tag string) bool {
	return xml == "<"+tag+"/>" || xml == "<"+tag+"></"+tag+">"
}
