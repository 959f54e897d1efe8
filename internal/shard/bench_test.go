package shard

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"vxml/internal/core"
	"vxml/internal/datagen"
	"vxml/internal/vectorize"
)

// federationMissMix is the serve_zipf query population minus its
// re-spellings: the KQ1 closing-price threshold family and the six KQ4
// regions. Every query in it is shardable.
func federationMissMix() []string {
	var qs []string
	const thresholds = 16
	for k := 0; k < thresholds; k++ {
		qs = append(qs, fmt.Sprintf(
			"for $t in /site/closed_auctions/closed_auction where $t/price >= %.1f return $t/price",
			float64(k)*200/thresholds))
	}
	for _, region := range []string{"australia", "africa", "asia", "europe", "namerica", "samerica"} {
		qs = append(qs, fmt.Sprintf("for $i in /site/regions/%s/item return <item_info>{$i/description}</item_info>", region))
	}
	return qs
}

// BenchmarkFederationMiss times the federation's cache-miss path, the
// measurement behind keeping scatter-gather beside the union view: XMark
// at total scale 4 in 8 documents, split over 2 and 4 shards, asked the
// federationMissMix round-robin with the result cache off, so every
// query evaluates and serializes its answer. "scatter" is the federation
// Service as served; "union" forces every miss onto the union view.
//
//	go test ./internal/shard -run '^$' -bench FederationMiss -benchtime 300x -count 10
func BenchmarkFederationMiss(b *testing.B) {
	docs := make([]string, 8)
	for i := range docs {
		var sb strings.Builder
		if err := (datagen.XMark{Scale: 0.5, Seed: int64(i + 1)}).Generate(&sb); err != nil {
			b.Fatal(err)
		}
		docs[i] = sb.String()
	}
	queries := federationMissMix()
	ctx := context.Background()
	for _, n := range []int{2, 4} {
		dir := filepath.Join(b.TempDir(), "fed")
		if _, err := Build(docs, dir, BuildConfig{Shards: n, Policy: PolicyRange}); err != nil {
			b.Fatal(err)
		}
		f, err := OpenFederation(dir, vectorize.Options{})
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.ServiceConfig{PlanCacheSize: 64}
		union := &missEval{fed: f, opts: cfg.Opts}
		for _, mode := range []struct {
			name string
			svc  *core.Service
		}{
			{"scatter", NewService(f, cfg)},
			{"union", core.NewEvalService(union.unionEval, f.Epoch, cfg)},
		} {
			b.Run(fmt.Sprintf("shards=%d/%s", n, mode.name), func(b *testing.B) {
				run := func(q string) {
					res, _, err := mode.svc.Query(ctx, q)
					if err == nil {
						_, err = res.XML()
					}
					if err != nil {
						b.Fatalf("%q: %v", q, err)
					}
				}
				for _, q := range queries {
					plan, err := mode.svc.Plan(q)
					if err != nil {
						b.Fatal(err)
					}
					if ok, reason := Shardable(plan, f.Catalog.RootTag); !ok {
						b.Fatalf("%q is not shardable (%s): the scatter side would not scatter", q, reason)
					}
					run(q) // warm the pool and the plan cache
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run(queries[i%len(queries)])
				}
			})
		}
		f.Close()
	}
}
