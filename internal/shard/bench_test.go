package shard

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"sync"
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

// treebankMissMix is TQ1 over eight JJ words plus TQ3: the paper's
// TreeBank queries that scatter (TQ2 does too, but one evaluation of it
// outweighs the rest of the mix).
func treebankMissMix() []string {
	var qs []string
	for _, w := range []string{"Federal", "alpha", "delta", "market", "oscar", "survey", "tango", "zulu"} {
		qs = append(qs, fmt.Sprintf("/alltreebank/FILE/EMPTY/S/NP[JJ='%s']", w))
	}
	return append(qs, `for $s in /alltreebank/FILE/EMPTY/S, $nn1 in $s/NP/NN, $nn2 in $s//WHNP/NP/NN
		where $nn1 = $nn2 return $s`)
}

// BenchmarkFederationMiss times the federation's cache-miss path against
// the same documents in one repository, the measurement behind keeping
// the federation at all. Each dataset is 8 documents: XMark at total
// scale 4 (0.5 each) asked federationMissMix, and TreeBank (250
// sentences each) asked treebankMissMix, round-robin with the result
// cache off, so every query evaluates and serializes its answer.
//   - shards=N/scatter is the federation Service as served, over N
//     range-placed shards;
//   - shards=N/union forces every miss onto the union view;
//   - single is one repository made by one Create and seven Appends,
//     which is what the union view stands in for.
//
// clients=C runs C goroutines splitting the ops, so scatter's goroutine
// per shard competes with other queries.
//
//	go test ./internal/shard -run '^$' -bench FederationMiss -benchtime 300x -count 10
func BenchmarkFederationMiss(b *testing.B) {
	datasets := []struct {
		name    string
		gen     func(seed int64) func(io.Writer) error
		queries []string
	}{
		{"XK", func(seed int64) func(io.Writer) error { return datagen.XMark{Scale: 0.5, Seed: seed}.Generate }, federationMissMix()},
		{"TB", func(seed int64) func(io.Writer) error { return datagen.TreeBank{Sentences: 250, Seed: seed}.Generate }, treebankMissMix()},
	}
	ctx := context.Background()
	for _, ds := range datasets {
		b.Run(ds.name, func(b *testing.B) {
			docs := make([]string, 8)
			for i := range docs {
				var sb strings.Builder
				if err := ds.gen(int64(i + 1))(&sb); err != nil {
					b.Fatal(err)
				}
				docs[i] = sb.String()
			}
			cfg := core.ServiceConfig{PlanCacheSize: 64}
			type mode struct {
				name  string
				svc   *core.Service
				split *Federation // checked: every query must scatter
			}
			var modes []mode
			for _, n := range []int{2, 4} {
				dir := filepath.Join(b.TempDir(), "fed")
				if _, err := Build(docs, dir, BuildConfig{Shards: n, Policy: PolicyRange}); err != nil {
					b.Fatal(err)
				}
				f, err := OpenFederation(dir, vectorize.Options{})
				if err != nil {
					b.Fatal(err)
				}
				defer f.Close()
				union := &missEval{fed: f, opts: cfg.Opts}
				modes = append(modes,
					mode{fmt.Sprintf("shards=%d/scatter", n), NewService(f, cfg), f},
					mode{fmt.Sprintf("shards=%d/union", n), core.NewEvalService(union.unionEval, f.Epoch, cfg), nil})
			}
			repo, err := vectorize.Create(strings.NewReader(docs[0]), filepath.Join(b.TempDir(), "single"), vectorize.Options{})
			if err != nil {
				b.Fatal(err)
			}
			defer repo.Close()
			for _, doc := range docs[1:] {
				if err := repo.Append(strings.NewReader(doc)); err != nil {
					b.Fatal(err)
				}
			}
			modes = append(modes, mode{"single", core.NewService(repo, cfg), nil})

			for _, clients := range []int{1, 2} {
				for _, m := range modes {
					b.Run(fmt.Sprintf("clients=%d/%s", clients, m.name), func(b *testing.B) {
						run := func(q string) {
							res, _, err := m.svc.Query(ctx, q)
							if err == nil {
								_, err = res.XML()
							}
							if err != nil {
								b.Errorf("%q: %v", q, err)
							}
						}
						for _, q := range ds.queries {
							if m.split != nil {
								plan, err := m.svc.Plan(q)
								if err != nil {
									b.Fatal(err)
								}
								if ok, reason := Shardable(plan, m.split.Catalog.RootTag); !ok {
									b.Fatalf("%q is not shardable (%s): the scatter side would not scatter", q, reason)
								}
							}
							run(q) // warm the pool and the plan cache
						}
						b.ResetTimer()
						var wg sync.WaitGroup
						for c := 0; c < clients; c++ {
							wg.Add(1)
							go func() {
								defer wg.Done()
								for i := c; i < b.N; i += clients {
									run(ds.queries[i%len(ds.queries)])
								}
							}()
						}
						wg.Wait()
					})
				}
			}
		})
	}
}
