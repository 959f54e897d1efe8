package core

import (
	"context"
	"testing"

	"vxml/internal/obs"
	"vxml/internal/vectorize"
)

// TestServiceSpanTreeGolden pins the span-tree shape of a query through
// the Service front door: Redacted() drops IDs and timings, so the
// golden strings assert exactly which spans exist, how they nest, and
// which attributes label them — for both a cold evaluation and a
// result-cache hit. A refactor that silently drops a span from the
// request path fails here, not in a dashboard three weeks later.
func TestServiceSpanTreeGolden(t *testing.T) {
	dir := mkDiskRepo(t, genBib(50))
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: 32})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	svc := NewService(repo, ServiceConfig{PlanCacheSize: 8, ResultCacheSize: 8})

	obs.Traces.Configure(8, 1, 0)
	defer obs.Traces.Configure(128, 1, 0)
	prev := obs.SetTracing(true)
	defer obs.SetTracing(prev)

	for i := 0; i < 2; i++ {
		if _, _, err := svc.Query(context.Background(), svcQuery); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	recs := obs.Traces.List() // newest first
	if len(recs) != 2 {
		t.Fatalf("trace ring holds %d records, want 2", len(recs))
	}
	cold, cached := recs[1], recs[0]

	wantCold := "core.query source=\"eval\" outcome=\"ok\"\n" +
		"  core.plan\n" +
		"  core.cache_lookup hit=false\n" +
		"  core.admission_wait\n" +
		"  core.eval\n"
	if got := cold.Root.Redacted(); got != wantCold {
		t.Errorf("cold span tree mismatch:\n got:\n%s\nwant:\n%s", got, wantCold)
	}

	wantCached := "core.query source=\"result-cache\" outcome=\"ok\"\n" +
		"  core.plan\n" +
		"  core.cache_lookup hit=true\n"
	if got := cached.Root.Redacted(); got != wantCached {
		t.Errorf("cached span tree mismatch:\n got:\n%s\nwant:\n%s", got, wantCached)
	}

	// Child spans nest within the root's measured duration: each record's
	// root covers the sum of its direct children.
	for _, rec := range recs {
		var kids int64
		for _, c := range rec.Root.Children {
			kids += c.DurUS
		}
		if kids > rec.Root.DurUS {
			t.Errorf("children (%dµs) outlast root (%dµs) in %s", kids, rec.Root.DurUS, rec.TraceID)
		}
	}
}
