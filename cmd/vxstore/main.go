// Command vxstore manages vectorized XML repositories: vectorize a
// document, reconstruct it, inspect its statistics, and run XQ queries
// with the graph-reduction engine.
//
// Usage:
//
//	vxstore vectorize -repo DIR file.xml     decompose a document into (S,V)
//	vxstore append -repo DIR fragment.xml    append a fragment's children
//	vxstore reconstruct -repo DIR            emit the stored document as XML
//	vxstore stats -repo DIR                  skeleton/vector statistics
//	vxstore fsck -repo DIR                   deep-verify checksums and invariants
//	vxstore query -repo DIR [-explain[=analyze]] 'for $x in ... return ...'
//	vxstore query -repo DIR -f query.xq
//	vxstore query -repo DIR -parallel 8 -f query.xq
//	vxstore serve -repo DIR -addr :8080      HTTP query server with /metrics
//	vxstore serve -shards DIR -addr :8080    serve a sharded federation
//	vxstore shard split -out DIR -n N docs…  split documents into a federation
//	vxstore shard list -dir DIR              per-shard federation status
//	vxstore shard rebalance -dir DIR -out DIR -n M   re-split a federation
//	vxstore quarantine -addr HOST:PORT       list or clear quarantined vectors
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/serve"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
	"vxml/internal/xq"
)

// version identifies the binary on /metrics (vx_build_info); release
// builds override it with -ldflags "-X main.version=...".
var version = "dev"

func main() {
	obs.SetBuildInfo(version, int64(vectorize.FormatVersion()))
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "vectorize":
		err = cmdVectorize(os.Args[2:])
	case "reconstruct":
		err = cmdReconstruct(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "fsck":
		err = cmdFsck(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "quarantine":
		err = cmdQuarantine(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vxstore:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  vxstore vectorize -repo DIR file.xml
  vxstore append -repo DIR fragment.xml
  vxstore reconstruct -repo DIR
  vxstore stats -repo DIR
  vxstore fsck -repo DIR [-q]
  vxstore query -repo DIR [-explain[=analyze]] [-parallel N] [-f query.xq | 'query text']
  vxstore serve -repo DIR | -shards DIR [-addr :8080] [-timeout 30s] [-slow 1s]
                [-plan-cache 256] [-result-cache 1024]
                [-max-inflight N] [-max-inflight-pages N] [-admit-wait 5ms]
                [-read-retries N] [-retry-backoff 2ms]
  vxstore shard split -out DIR -n N [-policy hash|range] [-compress] [-pool N] doc.xml...
  vxstore shard list -dir DIR [-pool N]
  vxstore shard rebalance -dir DIR -out NEWDIR -n M [-policy hash|range] [-compress] [-pool N]
  vxstore quarantine -addr HOST:PORT [list | clear]`)
}

func cmdVectorize(args []string) error {
	fs := flag.NewFlagSet("vectorize", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory to create")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	compress := fs.Bool("compress", false, "DEFLATE-compress data vectors per page")
	fs.Parse(args)
	if *repoDir == "" || fs.NArg() != 1 {
		return fmt.Errorf("vectorize needs -repo DIR and one XML file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	repo, err := vectorize.Create(f, *repoDir, vectorize.Options{PoolPages: *pool, Compress: *compress})
	if err != nil {
		return err
	}
	defer repo.Close()
	fmt.Printf("vectorized %s into %s\n", fs.Arg(0), *repoDir)
	return printStats(repo)
}

func openRepo(fs *flag.FlagSet, repoDir *string, pool *int) (*vectorize.Repository, error) {
	if *repoDir == "" {
		return nil, fmt.Errorf("missing -repo DIR")
	}
	return vectorize.Open(*repoDir, vectorize.Options{PoolPages: *pool})
}

func cmdReconstruct(args []string) error {
	fs := flag.NewFlagSet("reconstruct", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	fs.Parse(args)
	repo, err := openRepo(fs, repoDir, pool)
	if err != nil {
		return err
	}
	defer repo.Close()
	return repo.WriteXML(os.Stdout)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	verbose := fs.Bool("v", false, "list every vector")
	fs.Parse(args)
	repo, err := openRepo(fs, repoDir, pool)
	if err != nil {
		return err
	}
	defer repo.Close()
	if err := printStats(repo); err != nil {
		return err
	}
	if *verbose {
		for _, name := range repo.Vectors.Names() {
			v, err := repo.Vectors.Vector(name)
			if err != nil {
				return err
			}
			fmt.Printf("  %-60s %8d values\n", name, v.Len())
		}
	}
	return nil
}

func printStats(repo *vectorize.Repository) error {
	fmt.Printf("document nodes:  %d\n", repo.Skel.ExpandedSize())
	fmt.Printf("skeleton nodes:  %d\n", repo.Skel.NumNodes())
	fmt.Printf("skeleton edges:  %d\n", repo.Skel.NumEdges())
	fmt.Printf("vectors:         %d\n", len(repo.Vectors.Names()))
	if set, ok := repo.Vectors.(*vector.DiskSet); ok {
		fmt.Printf("vector bytes:    %d\n", set.CatalogBytes())
	}
	fmt.Printf("compression:     %.1fx (nodes per skeleton node)\n",
		float64(repo.Skel.ExpandedSize())/float64(repo.Skel.NumNodes()))
	return nil
}

// explainFlag is the -explain flag's value: absent, bare (-explain, plan
// only), or "analyze" (-explain=analyze, run and annotate with timings).
type explainFlag struct {
	set     bool
	analyze bool
}

func (e *explainFlag) String() string {
	switch {
	case e.analyze:
		return "analyze"
	case e.set:
		return "true"
	}
	return ""
}

func (e *explainFlag) Set(v string) error {
	switch v {
	case "", "true":
		e.set, e.analyze = true, false
	case "analyze":
		e.set, e.analyze = true, true
	default:
		return fmt.Errorf("-explain accepts no value or 'analyze', got %q", v)
	}
	return nil
}

// IsBoolFlag lets plain -explain (no value) parse as -explain=true.
func (e *explainFlag) IsBoolFlag() bool { return true }

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	file := fs.String("f", "", "read the query from a file")
	var explain explainFlag
	fs.Var(&explain, "explain", "print the plan instead of the result; =analyze runs the query and annotates per-op timings and counters")
	check := fs.Bool("check", false, "statically check the query against the repository's path catalog without evaluating; exit 1 if it is unsatisfiable")
	stats := fs.Bool("stats", false, "print evaluation statistics to stderr")
	parallel := fs.Int("parallel", 1, "serve the query N times from concurrent goroutines (per-query engines)")
	timeout := fs.Duration("timeout", 0, "cancel the query after this long (0 = no limit)")
	fs.Parse(args)

	var src string
	switch {
	case *file != "":
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		src = string(data)
	case fs.NArg() == 1:
		src = fs.Arg(0)
	default:
		return fmt.Errorf("query needs -f FILE or one query argument")
	}

	q, err := xq.Parse(src)
	if err != nil {
		return err
	}
	plan, err := qgraph.Build(q)
	if err != nil {
		return err
	}
	if explain.set && !explain.analyze {
		// Static explain needs no repository: the plan is a pure function
		// of the query.
		fmt.Println("query graph:")
		fmt.Print(qgraph.GraphOf(plan).String())
		fmt.Println("\nreduction plan:")
		fmt.Println(plan.String())
		return nil
	}

	repo, err := openRepo(fs, repoDir, pool)
	if err != nil {
		return err
	}
	defer repo.Close()
	if *check {
		// Parse + static validation only: every path edge of the query
		// graph is matched against the path catalog; nothing is evaluated
		// and no vector is opened.
		eng := core.NewRepoEngine(repo, core.Options{})
		sc := eng.CheckPlan(plan)
		fmt.Println(sc.String())
		if sc.Empty {
			return fmt.Errorf("query is statically empty")
		}
		return nil
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	// Carry the query text on the evaluation's meter so the active-query
	// registry and slow-query captures show it as typed, not the compiled
	// plan; queryParallel gives each of its evaluations a meter of its own.
	ctx = obs.WithMeter(ctx, &obs.TaskMeter{Query: src})
	if explain.analyze {
		eng := core.NewRepoEngine(repo, core.Options{})
		out, err := eng.ExplainAnalyze(ctx, plan)
		if err != nil {
			return err
		}
		fmt.Println(out)
		return nil
	}
	if *parallel > 1 {
		return queryParallel(ctx, repo, plan, *parallel, *stats)
	}
	res, tr, err := core.NewRepoEngine(repo, core.Options{}).EvalTraced(ctx, plan)
	if err != nil {
		return err
	}
	if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	if *stats {
		s := tr.Total
		fmt.Fprintf(os.Stderr, "tuples=%d vectors-opened=%d values-scanned=%d rows=%d runs-expanded=%d index-hits=%d pages=%d\n",
			s.Tuples, s.VectorsOpened, s.ValuesScanned, s.RowsProduced, s.RunsExpanded, s.IndexHits, s.PagesFaulted)
	}
	return nil
}

// cmdShard manages sharded federations: split a document set into one,
// inspect it, or re-split it to a new shard count.
func cmdShard(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("shard needs an action (split, list or rebalance)")
	}
	switch args[0] {
	case "split":
		return cmdShardSplit(args[1:])
	case "list":
		return cmdShardList(args[1:])
	case "rebalance":
		return cmdShardRebalance(args[1:])
	default:
		return fmt.Errorf("unknown shard action %q (want split, list or rebalance)", args[0])
	}
}

// cmdShardSplit bulk-loads documents into a new federation: each
// argument is one whole XML document, all sharing a root tag.
func cmdShardSplit(args []string) error {
	fs := flag.NewFlagSet("shard split", flag.ExitOnError)
	out := fs.String("out", "", "federation directory to create")
	n := fs.Int("n", 0, "shard count")
	policy := fs.String("policy", "hash", "document placement: hash or range")
	pool := fs.Int("pool", 8192, "buffer pool pages per shard")
	compress := fs.Bool("compress", false, "DEFLATE-compress data vectors per page")
	fs.Parse(args)
	if *out == "" || *n < 1 || fs.NArg() == 0 {
		return fmt.Errorf("shard split needs -out DIR, -n N >= 1 and at least one XML file")
	}
	docs := make([]string, fs.NArg())
	for i, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		docs[i] = string(data)
	}
	cat, err := shard.Build(docs, *out, shard.BuildConfig{
		Shards: *n,
		Policy: shard.Policy(*policy),
		Opts:   vectorize.Options{PoolPages: *pool, Compress: *compress},
	})
	if err != nil {
		return err
	}
	fmt.Printf("split %d documents (root <%s>) into %d shards under %s\n",
		cat.NumDocs(), cat.RootTag, len(cat.Shards), *out)
	for k, si := range cat.Shards {
		fmt.Printf("  shard %d: %-12s %d documents\n", k, si.Dir, len(si.Docs))
	}
	return nil
}

func openFederation(dir string, pool int) (*shard.Federation, error) {
	if dir == "" {
		return nil, fmt.Errorf("missing federation directory")
	}
	return shard.OpenFederation(dir, vectorize.Options{PoolPages: pool})
}

// cmdShardList prints per-shard status for a federation on disk.
func cmdShardList(args []string) error {
	fs := flag.NewFlagSet("shard list", flag.ExitOnError)
	dir := fs.String("dir", "", "federation directory")
	pool := fs.Int("pool", 8192, "buffer pool pages per shard")
	fs.Parse(args)
	f, err := openFederation(*dir, *pool)
	if err != nil {
		return err
	}
	defer f.Close()
	fmt.Printf("federation %s: root <%s>, policy %s, %d documents, %d shards\n",
		*dir, f.Catalog.RootTag, f.Catalog.Policy, f.Catalog.NumDocs(), len(f.Shards))
	for _, st := range f.Status() {
		fmt.Printf("  shard %d: %-12s %4d documents  %6d classes  %6d vectors  epoch %d",
			st.Shard, st.Dir, st.Docs, st.Classes, st.Vectors, st.Epoch)
		if len(st.Quarantined) > 0 {
			fmt.Printf("  QUARANTINED %d", len(st.Quarantined))
		}
		fmt.Println()
	}
	return nil
}

// cmdShardRebalance re-splits an existing federation into a new one at
// -out with a different shard count or policy; the source is untouched.
func cmdShardRebalance(args []string) error {
	fs := flag.NewFlagSet("shard rebalance", flag.ExitOnError)
	dir := fs.String("dir", "", "source federation directory")
	out := fs.String("out", "", "new federation directory to create")
	n := fs.Int("n", 0, "new shard count")
	policy := fs.String("policy", "hash", "document placement: hash or range")
	pool := fs.Int("pool", 8192, "buffer pool pages per shard")
	compress := fs.Bool("compress", false, "DEFLATE-compress data vectors per page")
	fs.Parse(args)
	if *dir == "" || *out == "" || *n < 1 {
		return fmt.Errorf("shard rebalance needs -dir DIR, -out NEWDIR and -n N >= 1")
	}
	f, err := openFederation(*dir, *pool)
	if err != nil {
		return err
	}
	defer f.Close()
	cat, err := shard.Rebalance(f, *out, shard.BuildConfig{
		Shards: *n,
		Policy: shard.Policy(*policy),
		Opts:   vectorize.Options{PoolPages: *pool, Compress: *compress},
	})
	if err != nil {
		return err
	}
	fmt.Printf("rebalanced %d documents from %d shards (%s) into %d shards under %s\n",
		cat.NumDocs(), len(f.Catalog.Shards), *dir, len(cat.Shards), *out)
	return nil
}

// cmdServe runs the HTTP query server until SIGINT/SIGTERM, then drains
// in-flight requests and exits cleanly.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	shardsDir := fs.String("shards", "", "federation directory (serve a sharded federation instead of -repo)")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	addr := fs.String("addr", ":8080", "listen address")
	timeout := fs.Duration("timeout", 30*time.Second, "per-request evaluation timeout cap (0 = no cap)")
	slow := fs.Duration("slow", time.Second, "keep requests that take at least this long as slow, for GET /debug/slow (0 = off)")
	slowPages := fs.Int64("slow-pages", 0, "keep requests faulting at least this many pool pages as slow (0 = off)")
	ringSize := fs.Int("ring", 128, "how many finished requests (failed, slow, head-sampled) /debug/slow, /debug/panics and /debug/traces share")
	planCache := fs.Int("plan-cache", 256, "plan cache entries (0 = off)")
	resultCache := fs.Int("result-cache", 1024, "result cache entries, invalidated by append epoch (0 = off)")
	maxInflight := fs.Int("max-inflight", 0, "max concurrently evaluating queries before 429 (0 = no cap)")
	maxInflightPages := fs.Int64("max-inflight-pages", 0, "shed new queries while in-flight queries have faulted this many pages (0 = no cap)")
	admitWait := fs.Duration("admit-wait", 5*time.Millisecond, "how long an over-budget query queues before the 429")
	readRetries := fs.Int("read-retries", 0, "transient page-read retries before failing the query (0 = storage default, -1 = no retries)")
	retryBackoff := fs.Duration("retry-backoff", 0, "initial retry backoff, doubling per attempt with jitter (0 = storage default)")
	tracing := fs.Bool("trace", true, "per-request span trees: W3C traceparent in/out, a tree on every kept request, head sampling")
	traceSample := fs.Int64("trace-sample", 16, "keep 1-in-N healthy requests (failed and slow ones are always kept); 1 keeps all")
	traceExport := fs.String("trace-export", "", "append every completed trace to this file as OTLP-shaped JSON lines (\"-\" = stdout)")
	wideEvents := fs.String("wide-events", "", "append every finished request's record to this file as one JSON line (\"-\" = stdout)")
	fs.Parse(args)
	var (
		repo *vectorize.Repository
		fed  *shard.Federation
		err  error
	)
	if *shardsDir != "" {
		if *repoDir != "" {
			return fmt.Errorf("serve takes -repo or -shards, not both")
		}
		fed, err = openFederation(*shardsDir, *pool)
		if err != nil {
			return err
		}
		defer fed.Close()
	} else {
		repo, err = openRepo(fs, repoDir, pool)
		if err != nil {
			return err
		}
		defer repo.Close()
	}
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			c.Close()
		}
	}()
	openSink := func(path string) (io.Writer, error) {
		if path == "" {
			return nil, nil
		}
		if path == "-" {
			return os.Stdout, nil
		}
		f, ferr := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if ferr != nil {
			return nil, ferr
		}
		closers = append(closers, f)
		return f, nil
	}
	exportW, err := openSink(*traceExport)
	if err != nil {
		return err
	}
	wideW, err := openSink(*wideEvents)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := serve.New(serve.Config{
		Repo:             repo,
		Federation:       fed,
		Timeout:          *timeout,
		SlowQuery:        *slow,
		SlowPages:        *slowPages,
		RingSize:         *ringSize,
		PlanCacheSize:    *planCache,
		ResultCacheSize:  *resultCache,
		MaxInflight:      *maxInflight,
		MaxInflightPages: *maxInflightPages,
		AdmitWait:        *admitWait,
		ReadRetries:      *readRetries,
		RetryBackoff:     *retryBackoff,
		Tracing:          *tracing,
		TraceSample:      *traceSample,
		TraceExport:      exportW,
		WideEvents:       wideW,
	})
	return srv.ListenAndRun(ctx, *addr, nil)
}

// cmdQuarantine is the operator's view of a running server's corruption
// quarantine. "list" (the default) prints /healthz; "clear" asks the
// server to re-verify every quarantined vector from disk and prints which
// came back clean and which are still corrupt. A non-empty kept set (or a
// degraded listing) exits non-zero so scripts can alert on it.
func cmdQuarantine(args []string) error {
	fs := flag.NewFlagSet("quarantine", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8080", "address of a running vxstore serve")
	fs.Parse(args)
	action := "list"
	switch fs.NArg() {
	case 0:
	case 1:
		action = fs.Arg(0)
	default:
		return fmt.Errorf("quarantine takes at most one action (list or clear)")
	}
	base := *addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	client := &http.Client{Timeout: 30 * time.Second}
	switch action {
	case "list":
		resp, err := client.Get(base + "/healthz")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var health struct {
			Status      string                    `json:"status"`
			Quarantined []storage.QuarantineEntry `json:"quarantined"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
			return fmt.Errorf("decode /healthz: %w", err)
		}
		fmt.Printf("status: %s\n", health.Status)
		for _, e := range health.Quarantined {
			fmt.Printf("  %-50s since %s  %s\n", e.Vector, e.Since.Format(time.RFC3339), e.Reason)
		}
		if len(health.Quarantined) > 0 {
			return fmt.Errorf("%d vector(s) quarantined", len(health.Quarantined))
		}
		return nil
	case "clear":
		resp, err := client.Post(base+"/debug/quarantine/clear", "application/json", nil)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server returned %s", resp.Status)
		}
		var out struct {
			Cleared []string `json:"cleared"`
			Kept    []string `json:"kept"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return fmt.Errorf("decode response: %w", err)
		}
		for _, v := range out.Cleared {
			fmt.Printf("cleared: %s\n", v)
		}
		for _, v := range out.Kept {
			fmt.Printf("kept:    %s (still corrupt on disk)\n", v)
		}
		if len(out.Kept) > 0 {
			return fmt.Errorf("%d vector(s) still quarantined after re-verify", len(out.Kept))
		}
		return nil
	default:
		return fmt.Errorf("unknown quarantine action %q (want list or clear)", action)
	}
}

// queryParallel serves the same plan from n concurrent goroutines, each
// through its own engine against the shared repository — the concurrent
// serving pattern. All serialized results must agree byte for byte; one
// copy is printed.
func queryParallel(ctx context.Context, repo *vectorize.Repository, plan *qgraph.Plan, n int, stats bool) error {
	outs := make([][]byte, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			eng := core.NewRepoEngine(repo, core.Options{})
			res, err := eng.Eval(obs.WithMeter(ctx, &obs.TaskMeter{Query: obs.MeterFrom(ctx).Query}), plan)
			if err != nil {
				errs[i] = err
				return
			}
			var buf bytes.Buffer
			if err := vectorize.ReconstructXML(res.Skel, res.Classes, res.Vectors, res.Syms, &buf); err != nil {
				errs[i] = err
				return
			}
			outs[i] = buf.Bytes()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("parallel query %d: %w", i, err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(outs[i], outs[0]) {
			return fmt.Errorf("parallel query %d produced a different result than query 0", i)
		}
	}
	os.Stdout.Write(outs[0])
	fmt.Println()
	if stats {
		fmt.Fprintf(os.Stderr, "parallel=%d elapsed=%s qps=%.1f\n",
			n, elapsed.Round(time.Millisecond), float64(n)/elapsed.Seconds())
	}
	return nil
}

// cmdFsck deep-verifies a repository: manifest, checksum footers, every
// vector page's CRC, and the skeleton/catalog/vector count invariants.
// Exit status 0 means the repository is sound (warnings allowed); any
// corruption exits non-zero with the offending file and offset on stderr.
func cmdFsck(args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	quiet := fs.Bool("q", false, "print nothing when the repository is clean")
	fs.Parse(args)
	if *repoDir == "" {
		return fmt.Errorf("fsck needs -repo DIR")
	}
	rep, err := vectorize.Fsck(*repoDir, vectorize.Options{PoolPages: *pool})
	if err != nil {
		return fmt.Errorf("fsck %s: %w", *repoDir, err)
	}
	for _, w := range rep.Warnings {
		fmt.Fprintf(os.Stderr, "fsck: warning: %s\n", w)
	}
	if !*quiet {
		fmt.Printf("%s: clean — %d vectors, %d values, %d pages verified\n",
			*repoDir, rep.Vectors, rep.Values, rep.PagesRead)
	}
	return nil
}

func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	repoDir := fs.String("repo", "", "repository directory")
	pool := fs.Int("pool", 8192, "buffer pool pages")
	fs.Parse(args)
	if *repoDir == "" || fs.NArg() != 1 {
		return fmt.Errorf("append needs -repo DIR and one XML fragment file")
	}
	repo, err := openRepo(fs, repoDir, pool)
	if err != nil {
		return err
	}
	defer repo.Close()
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	if err := repo.Append(f); err != nil {
		return err
	}
	fmt.Printf("appended %s\n", fs.Arg(0))
	return printStats(repo)
}
