package shard

import (
	"context"
	"errors"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// buildFed builds a federation from docs on a fresh MemFS and opens its
// serving layer.
func buildFed(t *testing.T, docs []string, shards int, policy Policy) (*Federation, *core.Service) {
	t.Helper()
	mem := storage.NewMemFS()
	opts := vectorize.Options{PoolPages: 16, FS: mem}
	if _, err := Build(docs, "fed", BuildConfig{Shards: shards, Policy: policy, Opts: opts}); err != nil {
		t.Fatalf("build federation: %v", err)
	}
	f, err := OpenFederation("fed", opts)
	if err != nil {
		t.Fatalf("open federation: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f, NewService(f, core.ServiceConfig{PlanCacheSize: 32, ResultCacheSize: 32})
}

// unionAnswer evaluates the query over a single in-memory repository
// holding the union of the federation's documents in federation
// (shard-major) document order — the baseline every federated answer
// must reproduce.
func unionAnswer(t *testing.T, f *Federation, docs []string, query string) string {
	t.Helper()
	syms := xmlmodel.NewSymbols()
	var root *xmlmodel.Node
	for _, si := range f.Catalog.Shards {
		for _, di := range si.Docs {
			doc, err := xmlmodel.ParseString(docs[di.ID], syms)
			if err != nil {
				t.Fatal(err)
			}
			if root == nil {
				root = xmlmodel.NewElem(doc.Tag)
			}
			for _, kid := range doc.Kids {
				root.Append(kid)
			}
		}
	}
	mem, err := vectorize.FromTree(root, syms)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := core.NewMemService(mem, core.ServiceConfig{}).Query(context.Background(), query)
	if err != nil {
		t.Fatalf("union baseline %q: %v", query, err)
	}
	xml, err := res.XML()
	if err != nil {
		t.Fatal(err)
	}
	return xml
}

func fedAnswer(t *testing.T, svc *core.Service, query string) (string, *core.Result, core.Source) {
	t.Helper()
	res, src, err := svc.Query(context.Background(), query)
	if err != nil {
		t.Fatalf("federation %q: %v", query, err)
	}
	xml, err := res.XML()
	if err != nil {
		t.Fatal(err)
	}
	return xml, res, src
}

func TestBuildCatalogRoundTrip(t *testing.T) {
	docs := []string{
		"<lib><b><t>one</t></b></lib>",
		"<lib><b><t>two</t></b><b><t>three</t></b></lib>",
		"<lib><c>x</c></lib>",
		"<lib><b><t>four</t></b><c>y</c><c>z</c></lib>",
		"<lib/>",
	}
	f, _ := buildFed(t, docs, 3, PolicyHash)
	cat := f.Catalog
	if cat.RootTag != "lib" || cat.Policy != PolicyHash || len(cat.Shards) != 3 {
		t.Fatalf("catalog = %+v", cat)
	}
	seen := make(map[int]bool)
	for _, si := range cat.Shards {
		prev := -1
		for _, di := range si.Docs {
			if seen[di.ID] {
				t.Errorf("document %d assigned twice", di.ID)
			}
			seen[di.ID] = true
			if di.ID <= prev {
				t.Errorf("shard %s document order not ascending: %d after %d", si.Dir, di.ID, prev)
			}
			prev = di.ID
		}
	}
	if len(seen) != len(docs) {
		t.Errorf("%d of %d documents assigned", len(seen), len(docs))
	}
	st := f.Status()
	if len(st) != 3 {
		t.Fatalf("status rows = %d", len(st))
	}
	for k, row := range st {
		if row.Shard != k || row.Docs != len(cat.Shards[k].Docs) {
			t.Errorf("status[%d] = %+v", k, row)
		}
	}

	// Extraction inverts the split: every document comes back, in global
	// order, structurally identical to what went in.
	out, err := ExtractDocs(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(docs) {
		t.Fatalf("extracted %d documents, want %d", len(out), len(docs))
	}
	syms := xmlmodel.NewSymbols()
	for i := range docs {
		want, err := xmlmodel.ParseString(docs[i], syms)
		if err != nil {
			t.Fatal(err)
		}
		got, err := xmlmodel.ParseString(out[i], syms)
		if err != nil {
			t.Fatalf("extracted document %d: %v", i, err)
		}
		if !want.Equal(got) {
			t.Errorf("document %d round-trip mismatch:\n in: %s\nout: %s", i, docs[i], out[i])
		}
	}
}

func TestBuildRejects(t *testing.T) {
	mem := storage.NewMemFS()
	opts := vectorize.Options{PoolPages: 8, FS: mem}
	if _, err := Build([]string{"<a/>", "<b/>"}, "f1", BuildConfig{Shards: 2, Opts: opts}); err == nil {
		t.Error("mixed root tags accepted")
	}
	if _, err := Build([]string{"<a/>"}, "f2", BuildConfig{Shards: 0, Opts: opts}); err == nil {
		t.Error("zero shards accepted")
	}
	if _, err := Build(nil, "f3", BuildConfig{Shards: 1, Opts: opts}); err == nil {
		t.Error("empty document set accepted")
	}
	if _, err := Build([]string{"<a/>"}, "f4", BuildConfig{Shards: 1, Policy: "bogus", Opts: opts}); err == nil {
		t.Error("unknown policy accepted")
	}
}

func TestRebalance(t *testing.T) {
	docs := []string{
		"<lib><b>1</b></lib>", "<lib><b>2</b><b>3</b></lib>", "<lib><b>4</b></lib>",
	}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	const q = `for $b in /lib/b return $b`
	want, _, _ := fedAnswer(t, svc, q)

	mem := storage.NewMemFS()
	opts := vectorize.Options{PoolPages: 8, FS: mem}
	if _, err := Rebalance(f, "fed2", BuildConfig{Shards: 3, Policy: PolicyHash, Opts: opts}); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFederation("fed2", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	svc2 := NewService(f2, core.ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})
	got, _, _ := fedAnswer(t, svc2, q)
	if got != want {
		t.Errorf("rebalanced answer differs:\n got: %s\nwant: %s", got, want)
	}
}

func TestShardable(t *testing.T) {
	const rootTag = "root"
	cases := []struct {
		query  string
		want   bool
		reason string // substring of the expected reason when !want
	}{
		{`for $x in /root/a return $x`, true, ""},
		{`for $x in /root/a/b where $x/c = 'v' return $x/d`, true, ""},
		{`for $x in //a return $x`, true, ""},
		{`for $x in /root return $x/a`, true, ""},
		{`for $x in //root return $x/a`, true, ""},
		{`for $x in /root, $y in $x/a return $y/b`, true, ""},
		{`for $x in /root return $x`, false, "returns the document root"},
		{`for $x in //* return $x`, false, "returns the document root"},
		{`for $x in /root where $x/a = 'v' return $x/b`, false, "filters on the document root"},
		{`for $x in /root return <r>{$x/a}{$x/b}</r>`, false, "multiple projections"},
		{`for $x in /root return <r>{$x/a}</r>`, false, "constructs an element"},
		{`for $x in /root, $y in $x/a return <r>{$y/b}{$x/c}</r>`, false, "multiple projections"},
		{`for $x in /root, $y in $x/a, $z in $x/b return $z`, false, "multiple projections"},
		{`for $x in /root return <r>'c'</r>`, false, "no projection"},
	}
	for _, tc := range cases {
		parsed, err := xq.Parse(tc.query)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		plan, err := qgraph.Build(parsed)
		if err != nil {
			t.Fatalf("%q: %v", tc.query, err)
		}
		ok, reason := Shardable(plan, rootTag)
		if ok != tc.want {
			t.Errorf("Shardable(%q) = %v (%s), want %v", tc.query, ok, reason, tc.want)
			continue
		}
		if !tc.want && !strings.Contains(reason, tc.reason) {
			t.Errorf("Shardable(%q) reason = %q, want substring %q", tc.query, reason, tc.reason)
		}
	}
}

// TestMergeSingleShard: a 1-shard federation is the degenerate merge —
// byte-identical to the union baseline with every document in one repo.
func TestMergeSingleShard(t *testing.T) {
	docs := []string{"<lib><b><t>x</t></b><b><t>y</t></b></lib>", "<lib><b><t>z</t></b></lib>"}
	f, svc := buildFed(t, docs, 1, PolicyRange)
	for _, q := range []string{
		`for $b in /lib/b return $b/t`,
		`for $b in /lib/b return $b`,
	} {
		got, _, _ := fedAnswer(t, svc, q)
		if want := unionAnswer(t, f, docs, q); got != want {
			t.Errorf("%q:\n got: %s\nwant: %s", q, got, want)
		}
	}
}

// TestMergeEmptyShard: shards the policy left without documents (and
// shards whose documents simply don't match) contribute empty results,
// and the merge still equals the union.
func TestMergeEmptyShard(t *testing.T) {
	docs := []string{"<lib><b><t>x</t></b></lib>"}
	// Range policy over 4 shards with one document: shards 1-3 hold only
	// the bare <lib/> placeholder.
	f, svc := buildFed(t, docs, 4, PolicyRange)
	const q = `for $b in /lib/b return $b/t`
	got, res, _ := fedAnswer(t, svc, q)
	if want := unionAnswer(t, f, docs, q); got != want {
		t.Errorf("%q:\n got: %s\nwant: %s", q, got, want)
	}
	if res.StaticallyEmpty {
		t.Error("non-empty merged result flagged statically empty")
	}
}

// TestMergeRunCompression: identical result subtrees meeting at a shard
// boundary re-merge into one counted run, exactly as a single-repo
// evaluation over the union would have produced.
func TestMergeRunCompression(t *testing.T) {
	// Both documents yield structurally identical <b><t>#</t></b> result
	// subtrees, so the merged result root must carry one run-compressed
	// edge, not one edge per shard.
	docs := []string{
		"<lib><b><t>x</t></b><b><t>y</t></b></lib>",
		"<lib><b><t>z</t></b></lib>",
	}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	const q = `for $b in /lib/b return $b`
	got, res, _ := fedAnswer(t, svc, q)
	if want := unionAnswer(t, f, docs, q); got != want {
		t.Errorf("%q:\n got: %s\nwant: %s", q, got, want)
	}
	root := res.Repo.Skel.Edges(res.Repo.Skel.Root)
	if len(root) != 1 {
		t.Fatalf("merged result root has %d edges, want 1 run-compressed edge", len(root))
	}
	if root[0].Count != 3 {
		t.Errorf("merged run count = %d, want 3", root[0].Count)
	}
}

// TestMergeAllShardsStaticallyEmpty: when the static checker proves the
// query empty against every shard's catalog, the short-circuit must
// propagate through the federation — per-shard static_empty fires once
// per shard, the merged result is flagged, and the federation counts
// one statically-empty answer.
func TestMergeAllShardsStaticallyEmpty(t *testing.T) {
	docs := []string{"<lib><b>x</b></lib>", "<lib><b>y</b></lib>", "<lib><b>z</b></lib>"}
	f, svc := buildFed(t, docs, 2, PolicyHash)
	const q = `for $n in /lib/nosuchtag return $n` // no catalog path in any shard
	want := unionAnswer(t, f, docs, q)             // before the counter snapshot: this evaluation counts too

	coreEmpty := obs.GetCounter("core.static_empty").Load()
	shardEmpty := obs.GetCounter("shard.static_empty").Load()
	merges := obs.GetCounter("shard.merges").Load()
	got, res, _ := fedAnswer(t, svc, q)
	if got != want {
		t.Errorf("%q:\n got: %s\nwant: %s", q, got, want)
	}
	if !res.StaticallyEmpty {
		t.Error("all shards statically empty, merged result not flagged StaticallyEmpty")
	}
	if res.Stats.Tuples != 0 || res.Stats.VectorsOpened != 0 {
		t.Errorf("statically-empty merge did work: %+v", res.Stats)
	}
	if d := obs.GetCounter("core.static_empty").Load() - coreEmpty; d != int64(len(f.Shards)) {
		t.Errorf("core.static_empty delta = %d, want %d (one per shard)", d, len(f.Shards))
	}
	if d := obs.GetCounter("shard.static_empty").Load() - shardEmpty; d != 1 {
		t.Errorf("shard.static_empty delta = %d, want 1", d)
	}
	if d := obs.GetCounter("shard.merges").Load() - merges; d != 1 {
		t.Errorf("shard.merges delta = %d, want 1", d)
	}
}

// TestUnionFallback: a query the classifier rejects still answers, via
// the union view, identically to the single-repo baseline.
func TestUnionFallback(t *testing.T) {
	docs := []string{
		"<lib><b><t>x</t></b><flag>on</flag></lib>",
		"<lib><b><t>y</t></b></lib>",
	}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	fallbacks := obs.GetCounter("shard.queries_union_fallback").Load()
	scattered := obs.GetCounter("shard.queries_scattered").Load()

	// Filtering on the root is the canonical cross-document hazard: only
	// one document carries <flag>on</flag>, but the union root sees it,
	// so the union answer includes every document's titles.
	const q = `for $x in /lib where $x/flag = 'on' return $x/b/t`
	plan, err := svc.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := Shardable(plan, f.Catalog.RootTag); ok {
		t.Fatalf("Shardable(%q) = %v, %q; want a fallback", q, ok, reason)
	}
	got, _, _ := fedAnswer(t, svc, q)
	if want := unionAnswer(t, f, docs, q); got != want {
		t.Errorf("%q:\n got: %s\nwant: %s", q, got, want)
	}
	if !strings.Contains(got, "x") || !strings.Contains(got, "y") {
		t.Errorf("union semantics should include every document's titles, got %s", got)
	}
	if d := obs.GetCounter("shard.queries_union_fallback").Load() - fallbacks; d != 1 {
		t.Errorf("shard.queries_union_fallback delta = %d, want 1", d)
	}
	if d := obs.GetCounter("shard.queries_scattered").Load() - scattered; d != 0 {
		t.Errorf("shard.queries_scattered delta = %d, want 0", d)
	}
}

// TestFederationResultCache: repeats hit the federation's result cache;
// an append on any shard structurally invalidates it.
func TestFederationResultCache(t *testing.T) {
	docs := []string{"<lib><b>x</b></lib>", "<lib><b>y</b></lib>"}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	const q = `for $b in /lib/b return $b`
	first, _, src1 := fedAnswer(t, svc, q)
	if src1.Cached() {
		t.Fatalf("first answer source = %s", src1)
	}
	second, _, src2 := fedAnswer(t, svc, q)
	if src2 != core.SourceResultCache {
		t.Errorf("repeat source = %s, want result-cache", src2)
	}
	if first != second {
		t.Error("cached answer differs from evaluated answer")
	}

	if err := f.Shards[1].Append(strings.NewReader("<lib><b>zz</b></lib>")); err != nil {
		t.Fatal(err)
	}
	third, res, src3 := fedAnswer(t, svc, q)
	if src3.Cached() {
		t.Errorf("post-append source = %s, want eval", src3)
	}
	if !strings.Contains(third, "zz") || third == second {
		t.Errorf("post-append answer missing appended data: %s", third)
	}
	if res.Epoch != f.Epoch() {
		t.Errorf("post-append result epoch = %d, want federation epoch %d", res.Epoch, f.Epoch())
	}
}

// TestFederationDegraded: a quarantined shard yields a typed degraded
// error on both the scatter and union paths — never a partial answer.
func TestFederationDegraded(t *testing.T) {
	docs := []string{"<lib><b><t>x</t></b></lib>", "<lib><b><t>y</t></b></lib>"}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	name := f.Shards[0].Vectors.Names()[0]
	f.Shards[0].Health.Quarantine(name, "test fence")
	defer f.Shards[0].Health.Clear(name)

	for _, q := range []string{
		`for $b in /lib/b return $b/t`,                  // scatters
		`for $x in /lib where $x/b/t = 'x' return $x/b`, // union fallback
	} {
		_, _, err := svc.Query(context.Background(), q)
		if err == nil {
			t.Fatalf("%q: degraded federation answered", q)
		}
		var de *DegradedError
		if !errors.As(err, &de) {
			t.Errorf("%q: error %v is not a DegradedError", q, err)
			continue
		}
		if de.Shard != 0 {
			t.Errorf("%q: degraded shard = %d, want 0", q, de.Shard)
		}
		if !errors.Is(err, core.ErrQuarantined) {
			t.Errorf("%q: degraded error does not unwrap to ErrQuarantined: %v", q, err)
		}
		if got := OutcomeClass(err); got != "degraded" {
			t.Errorf("%q: outcome class = %q, want degraded", q, got)
		}
	}
}

// TestScatterMeterAttribution: each shard evaluation charges its own
// meter, and the scatter folds them into the request meter exactly once
// — the request sees the federation total, and a cached repeat charges
// one cache hit and nothing else.
func TestScatterMeterAttribution(t *testing.T) {
	docs := []string{"<lib><b>x</b><b>w</b></lib>", "<lib><b>y</b></lib>"}
	f, svc := buildFed(t, docs, 2, PolicyRange)
	const q = `for $b in /lib/b return $b`
	plan, err := svc.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	var want obs.TaskCounters
	for k, repo := range f.Shards {
		m := &obs.TaskMeter{}
		if _, err := core.NewRepoEngine(repo, core.Options{}).EvalResult(obs.WithMeter(context.Background(), m), plan); err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		want.Tuples += m.Counters().Tuples
		want.VectorsOpened += m.Counters().VectorsOpened
	}
	if want.Tuples == 0 || want.VectorsOpened == 0 {
		t.Fatalf("per-shard evaluations did no work: %+v", want)
	}

	m := &obs.TaskMeter{}
	if _, src, err := svc.Query(obs.WithMeter(context.Background(), m), q); err != nil || src != core.SourceEval {
		t.Fatalf("cold query: source %s, err %v", src, err)
	}
	if got := m.Counters(); got.Tuples != want.Tuples || got.VectorsOpened != want.VectorsOpened || got.CacheHits != 0 {
		t.Errorf("request meter = %+v, want tuples %d and vector opens %d folded once, no cache hits",
			got, want.Tuples, want.VectorsOpened)
	}

	m2 := &obs.TaskMeter{}
	if _, src, err := svc.Query(obs.WithMeter(context.Background(), m2), q); err != nil || src != core.SourceResultCache {
		t.Fatalf("repeat: source %s, err %v", src, err)
	}
	if got := m2.Counters(); got != (obs.TaskCounters{CacheHits: 1}) {
		t.Errorf("cached repeat meter = %+v, want exactly one cache hit", got)
	}
}

// gateFS parks every file read while a gate is armed, so a test can hold
// a federation's shard evaluations mid-flight.
type gateFS struct {
	storage.FS
	gate atomic.Pointer[chan struct{}]
}

func (g *gateFS) OpenFile(path string, flag int, perm os.FileMode) (storage.FSFile, error) {
	f, err := g.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return gateFile{FSFile: f, g: g}, nil
}

type gateFile struct {
	storage.FSFile
	g *gateFS
}

func (f gateFile) ReadAt(p []byte, off int64) (int, error) {
	if ch := f.g.gate.Load(); ch != nil {
		<-*ch
	}
	return f.FSFile.ReadAt(p, off)
}

// TestFederationSingleFlight: identical concurrent cold queries against a
// federation share one scatter. The leader is parked on its shard reads
// until every other request has joined its flight; then exactly one
// scatter runs and the rest are single-flight followers. While parked,
// the active-query registry lists the shard evaluations under their own
// "[shard k]" labels and never the request itself, so no page is counted
// twice.
func TestFederationSingleFlight(t *testing.T) {
	docs := []string{"<lib><b><t>x</t></b></lib>", "<lib><b><t>y</t></b><b><t>z</t></b></lib>"}
	mem := storage.NewMemFS()
	if _, err := Build(docs, "fed", BuildConfig{Shards: 2, Policy: PolicyRange, Opts: vectorize.Options{FS: mem}}); err != nil {
		t.Fatal(err)
	}
	gfs := &gateFS{FS: mem}
	f, err := OpenFederation("fed", vectorize.Options{PoolPages: 16, FS: gfs})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	svc := NewService(f, core.ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})
	const q = `for $b in /lib/b return $b/t`

	gate := make(chan struct{})
	gfs.gate.Store(&gate)
	release := sync.OnceFunc(func() {
		gfs.gate.Store(nil)
		close(gate)
	})
	defer release()
	scattered := obs.GetCounter("shard.queries_scattered").Load()
	followers := obs.GetCounter("core.singleflight_followers").Load()

	const n = 8
	var (
		wg   sync.WaitGroup
		srcs = make([]core.Source, n)
		xmls = make([]string, n)
		errs = make([]error, n)
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, src, err := svc.Query(obs.WithMeter(context.Background(), &obs.TaskMeter{Query: q}), q)
			srcs[i], errs[i] = src, err
			if err == nil {
				xmls[i], errs[i] = res.XML()
			}
		}(i)
	}
	deadline := time.Now().Add(10 * time.Second)
	for obs.GetCounter("core.singleflight_followers").Load()-followers < n-1 {
		if time.Now().After(deadline) {
			release()
			wg.Wait()
			t.Fatalf("only %d of %d requests joined the leader's flight (sources %v)",
				obs.GetCounter("core.singleflight_followers").Load()-followers, n-1, srcs)
		}
		time.Sleep(time.Millisecond)
	}
	shardLabels := 0
	for _, aq := range obs.ActiveQueries.List() {
		if strings.HasPrefix(aq.Query, "[shard ") {
			shardLabels++
		} else if aq.Query == q {
			t.Errorf("request registered as an active query beside its shard evaluations: %+v", aq)
		}
	}
	if shardLabels == 0 {
		t.Error("no [shard k] evaluation listed while the scatter is parked")
	}
	release()
	wg.Wait()

	if d := obs.GetCounter("shard.queries_scattered").Load() - scattered; d != 1 {
		t.Errorf("shard.queries_scattered delta = %d, want 1", d)
	}
	var evals, follow int
	for i := range srcs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if xmls[i] != xmls[0] {
			t.Errorf("request %d answer differs:\n%s\nvs\n%s", i, xmls[i], xmls[0])
		}
		switch srcs[i] {
		case core.SourceEval:
			evals++
		case core.SourceFollower:
			follow++
		}
	}
	if evals != 1 || follow != n-1 {
		t.Errorf("sources: %d eval, %d follower; want 1 and %d (%v)", evals, follow, n-1, srcs)
	}
}

func TestConcatVector(t *testing.T) {
	mk := func(vals ...string) vector.Vector { return &vector.Mem{Values: vals} }
	v := newConcatVector([]vector.Vector{mk("a", "b"), mk(), mk("c"), mk("d", "e", "f")})
	if v.Len() != 6 {
		t.Fatalf("Len = %d, want 6", v.Len())
	}
	want := []string{"a", "b", "c", "d", "e", "f"}
	for start := int64(0); start <= 6; start++ {
		for n := int64(0); start+n <= 6; n++ {
			var got []string
			var positions []int64
			err := v.Scan(start, n, func(pos int64, val []byte) error {
				positions = append(positions, pos)
				got = append(got, string(val))
				return nil
			})
			if err != nil {
				t.Fatalf("Scan(%d, %d): %v", start, n, err)
			}
			if int64(len(got)) != n {
				t.Fatalf("Scan(%d, %d) yielded %d values", start, n, len(got))
			}
			for i := range got {
				if positions[i] != start+int64(i) || got[i] != want[start+int64(i)] {
					t.Fatalf("Scan(%d, %d)[%d] = (%d, %q), want (%d, %q)",
						start, n, i, positions[i], got[i], start+int64(i), want[start+int64(i)])
				}
			}
		}
	}
	sentinel := errors.New("stop")
	if err := v.Scan(1, 4, func(pos int64, val []byte) error {
		if pos == 3 {
			return sentinel
		}
		return nil
	}); !errors.Is(err, sentinel) {
		t.Errorf("Scan error propagation: got %v", err)
	}
}
