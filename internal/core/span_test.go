package core

import (
	"context"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
)

// TestServiceSpanTreeGolden pins the span-tree shape of a query through
// the Service under a caller's root span: Redacted() drops IDs and
// timings, so the golden strings assert exactly which spans exist, how
// they nest, and which attributes label them — for both a cold
// evaluation and a result-cache hit. A refactor that silently drops a
// span from the request path fails here, not in a dashboard three weeks
// later.
func TestServiceSpanTreeGolden(t *testing.T) {
	dir := mkDiskRepo(t, genBib(50))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})

	// The caller roots the trace, as the HTTP handler does; core.query is
	// its child.
	var roots []*obs.SpanNode
	for i := 0; i < 2; i++ {
		tr := obs.NewTrace()
		ctx, root := tr.Start(context.Background(), "test.request")
		if _, _, err := svc.Query(ctx, svcQuery); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		root.End()
		tree := tr.Tree()
		if len(tree.Children) != 1 {
			t.Fatalf("query %d: root has %d children, want core.query alone:\n%s", i, len(tree.Children), tree.Redacted())
		}
		roots = append(roots, tree.Children[0])
	}
	cold, cached := roots[0], roots[1]

	wantCold := "core.query source=\"eval\" outcome=\"ok\"\n" +
		"  core.plan\n" +
		"  core.cache_lookup hit=false\n" +
		"  core.admission_wait\n" +
		"  core.eval\n"
	if got := cold.Redacted(); got != wantCold {
		t.Errorf("cold span tree mismatch:\n got:\n%s\nwant:\n%s", got, wantCold)
	}

	wantCached := "core.query source=\"result-cache\" outcome=\"ok\"\n" +
		"  core.plan\n" +
		"  core.cache_lookup hit=true\n"
	if got := cached.Redacted(); got != wantCached {
		t.Errorf("cached span tree mismatch:\n got:\n%s\nwant:\n%s", got, wantCached)
	}

	// Child spans nest within the root's measured duration: each
	// core.query span covers the sum of its direct children.
	for _, q := range roots {
		var kids int64
		for _, c := range q.Children {
			kids += c.DurUS
		}
		if kids > q.DurUS {
			t.Errorf("children (%dµs) outlast core.query (%dµs):\n%s", kids, q.DurUS, q.Redacted())
		}
	}
}
