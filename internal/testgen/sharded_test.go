package testgen

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// The sharded differential harness: every random document set is loaded
// twice — once as a single repository and once split across N shards —
// and every random query must answer identically through the
// federation's serving layer (scatter-gather or union view) and through a
// plain single-repository service over the union of the documents in
// federation document order: cold, cached, and after an append. Shard counts {1, 2, 4, 7} cover the
// degenerate single-shard case, even splits, and uneven splits where
// some shards end up empty.
//
// Knobs (environment):
//
//	VXSDIFF_SEED   base seed; pair i uses seed VXSDIFF_SEED+i (default 1)
//	VXSDIFF_PAIRS  number of (document set, query) pairs (default 150)
//
// Reproduce a failure with
//
//	VXSDIFF_SEED=<pair seed> VXSDIFF_PAIRS=1 go test ./internal/testgen -run TestShardedDifferential -v

var shardCounts = []int{1, 2, 4, 7}

// TestShardedDifferential runs the ordered (child-axis only) fragment,
// where the federation's contract is byte identity: no descendant or
// wildcard steps, so document order is fully specified.
func TestShardedDifferential(t *testing.T) {
	baseSeed := envInt64("VXSDIFF_SEED", 1)
	pairs := envInt64("VXSDIFF_PAIRS", 150)
	cfg := DefaultQueryConfig()
	cfg.DescendantPct = 0
	cfg.WildcardPct = 0
	t.Logf("sharded differential (ordered): base seed %d, %d pairs x %d shard counts", baseSeed, pairs, len(shardCounts))
	runShardedDifferential(t, baseSeed, pairs, cfg, true)
}

// TestShardedDifferentialUnordered runs the full query fragment.
// Descendant/wildcard queries group matches by path class, so those are
// compared as deep multisets (exactly like the engine-vs-naive harness);
// ordered queries still compare byte for byte.
func TestShardedDifferentialUnordered(t *testing.T) {
	baseSeed := envInt64("VXSDIFF_SEED", 1)
	pairs := envInt64("VXSDIFF_PAIRS", 150) / 2
	if pairs < 1 {
		pairs = 1
	}
	t.Logf("sharded differential (full fragment): base seed %d, %d pairs x %d shard counts", baseSeed, pairs, len(shardCounts))
	runShardedDifferential(t, baseSeed, pairs, DefaultQueryConfig(), false)
}

func runShardedDifferential(t *testing.T, baseSeed, pairs int64, cfg QueryConfig, forceOrdered bool) {
	failures := 0
	for i := int64(0); i < pairs; i++ {
		if !shardedDiffPair(t, baseSeed+i, cfg, forceOrdered) {
			failures++
			if failures >= 5 {
				t.Fatalf("stopping after %d failing pairs", failures)
			}
		}
	}
}

// shardedDiffPair runs one (document set, query) pair across every shard
// count and reports success. Each federation answers the query cold,
// then from its result cache, then — after one more document is
// appended to one shard — freshly again over the extended document
// order.
func shardedDiffPair(t *testing.T, seed int64, cfg QueryConfig, forceOrdered bool) bool {
	r := rand.New(rand.NewSource(seed))
	syms := xmlmodel.NewSymbols()
	ndocs := 1 + r.Intn(8)
	docs := make([]string, ndocs)
	for d := range docs {
		docs[d] = xmlmodel.TreeString(Doc(r, DefaultDocConfig(), syms), syms)
	}
	q := NewQuery(r, cfg)
	extra := xmlmodel.TreeString(Doc(r, DefaultDocConfig(), syms), syms)
	extraPick := r.Intn(1 << 16)
	// Odd pair seeds place documents by hash, even ones by range, so both
	// policies (and their different empty-shard patterns) soak equally.
	policy := shard.PolicyRange
	if seed%2 != 0 {
		policy = shard.PolicyHash
	}
	ordered := q.Ordered || forceOrdered

	for _, n := range shardCounts {
		mem := storage.NewMemFS()
		opts := vectorize.Options{PoolPages: 8, FS: mem}
		if _, err := shard.Build(docs, "fed", shard.BuildConfig{Shards: n, Policy: policy, Opts: opts}); err != nil {
			t.Errorf("pair seed %d shards %d: build: %v", seed, n, err)
			return false
		}
		f, err := shard.OpenFederation("fed", opts)
		if err != nil {
			t.Errorf("pair seed %d shards %d: open: %v", seed, n, err)
			return false
		}
		ok := func() bool {
			defer f.Close()
			svc := shard.NewService(f, core.ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})
			plan, err := svc.Plan(q.Src)
			if err != nil {
				t.Errorf("pair seed %d shards %d: plan: %v", seed, n, err)
				return false
			}
			shardable, reason := shard.Shardable(plan, f.Catalog.RootTag)
			// Federation document order: shard-major, catalog order within.
			perShard := make([][]string, n)
			for k, si := range f.Catalog.Shards {
				for _, di := range si.Docs {
					perShard[k] = append(perShard[k], docs[di.ID])
				}
			}
			// answer checks one federated answer against want — byte for
			// byte when exact, as a deep multiset otherwise — and returns
			// it.
			answer := func(step string, wantSrc core.Source, want string, exact bool) (string, bool) {
				res, src, err := svc.Query(context.Background(), q.Src)
				if err != nil {
					t.Errorf("pair seed %d shards %d: %s: %v\nquery: %s", seed, n, step, err, q.Src)
					return "", false
				}
				got, err := res.XML()
				if err != nil {
					t.Errorf("pair seed %d shards %d: %s: render: %v", seed, n, step, err)
					return "", false
				}
				if src != wantSrc {
					t.Errorf("pair seed %d shards %d: %s: source = %v, want %v\nquery: %s", seed, n, step, src, wantSrc, q.Src)
					return "", false
				}
				if exact {
					if got != want {
						t.Errorf("pair seed %d shards %d: %s: mismatch (exact, shardable=%v %s)\nquery: %s\nfederation: %s\nsingle-repo: %s",
							seed, n, step, shardable, reason, q.Src, got, want)
						return "", false
					}
				} else {
					gc, ok1 := canonicalForm(t, got, syms)
					wc, ok2 := canonicalForm(t, want, syms)
					if !ok1 || !ok2 || gc != wc {
						t.Errorf("pair seed %d shards %d: %s: mismatch (multiset, shardable=%v %s)\nquery: %s\nfederation: %s\nsingle-repo: %s",
							seed, n, step, shardable, reason, q.Src, got, want)
						return "", false
					}
				}
				return got, true
			}

			want, ok := shardedBaseline(t, seed, n, slices.Concat(perShard...), q.Src)
			if !ok {
				return false
			}
			got, ok := answer("cold", core.SourceEval, want, ordered)
			if !ok {
				return false
			}
			// Repeat: the result cache must serve the same bytes.
			if _, ok := answer("cached repeat", core.SourceResultCache, got, true); !ok {
				return false
			}

			// Static-check rollup soundness: the federation checker may only
			// call the query empty when the single-repo answer is a bare root.
			if sc := f.Check(plan); sc.Empty && !bareRoot(want, plan.ResultTag) {
				t.Errorf("pair seed %d shards %d: federated static check rejected an answerable query\nquery: %s\nreason: %s\nanswer: %s",
					seed, n, q.Src, sc.Reason, want)
				return false
			}

			// Cached, then append: one more document on one shard moves the
			// federation epoch, so the next answer is a fresh evaluation
			// over the extended document order, never the cached one.
			k := extraPick % n
			if err := f.Shards[k].Append(strings.NewReader(extra)); err != nil {
				t.Errorf("pair seed %d shards %d: append to shard %d: %v", seed, n, k, err)
				return false
			}
			perShard[k] = append(perShard[k], extra)
			if want, ok = shardedBaseline(t, seed, n, slices.Concat(perShard...), q.Src); !ok {
				return false
			}
			_, ok = answer(fmt.Sprintf("after append to shard %d", k), core.SourceEval, want, ordered)
			return ok
		}()
		if !ok {
			return false
		}
	}
	return true
}

// shardedBaseline evaluates the query over one in-memory repository
// holding the documents, in the given (federation) order.
func shardedBaseline(t *testing.T, seed int64, n int, docs []string, query string) (string, bool) {
	syms := xmlmodel.NewSymbols()
	var root *xmlmodel.Node
	for _, d := range docs {
		doc, err := xmlmodel.ParseString(d, syms)
		if err != nil {
			t.Errorf("pair seed %d shards %d: baseline parse: %v", seed, n, err)
			return "", false
		}
		if root == nil {
			root = xmlmodel.NewElem(doc.Tag)
		}
		for _, kid := range doc.Kids {
			root.Append(kid)
		}
	}
	mem, err := vectorize.FromTree(root, syms)
	if err != nil {
		t.Errorf("pair seed %d shards %d: baseline vectorize: %v", seed, n, err)
		return "", false
	}
	res, _, err := core.NewMemService(mem, core.ServiceConfig{}).Query(context.Background(), query)
	if err != nil {
		t.Errorf("pair seed %d shards %d: baseline query: %v\nquery: %s", seed, n, err, query)
		return "", false
	}
	xml, err := res.XML()
	if err != nil {
		t.Errorf("pair seed %d shards %d: baseline render: %v", seed, n, err)
		return "", false
	}
	return xml, true
}

// shardedDocOrder sanity-checks TreeString round-tripping: generated
// documents must re-parse to the same tree, or baseline order arguments
// fall apart silently.
func TestShardedDocRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	syms := xmlmodel.NewSymbols()
	for i := 0; i < 20; i++ {
		tree := Doc(r, DefaultDocConfig(), syms)
		s := xmlmodel.TreeString(tree, syms)
		back, err := xmlmodel.ParseString(s, syms)
		if err != nil {
			t.Fatalf("doc %d: %v", i, err)
		}
		if !tree.Equal(back) {
			t.Fatalf("doc %d: TreeString round-trip mismatch:\n%s", i, s)
		}
	}
}
