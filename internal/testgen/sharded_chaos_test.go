package testgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/shard"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// The sharded chaos soak: flaky-media fault injection against a SUBSET
// of a federation's shards, driven through the federation's serving
// layer (shard.NewService). The fault-tolerance contract extends the single-repository one:
//
//   - the process never dies;
//   - every response is a success byte-identical to the fault-free
//     baseline, an admission shed (ErrOverloaded), a typed degraded
//     response (quarantine fence or storage fault in one shard — never
//     a partial merge served as a complete answer), or a typed storage
//     fault — never an unclassified error, never ErrInternal;
//   - after injection stops and a per-shard re-verify runs, every shard
//     is healthy and every query answers exactly as before the chaos.
//
// Environment knobs (the CI smoke pins a seed; the nightly soak runs a
// fresh one — both print it, so any failure replays exactly):
//
//	VXSCHAOS_SEED    chaos dice seed (default 1)
//	VXSCHAOS_MS      soak duration in milliseconds (default 1500)
//	VXSCHAOS_SHARDS  shard count; shard 0 gets the faults (default 2)
func TestShardedChaosSoak(t *testing.T) {
	seed := envInt64("VXSCHAOS_SEED", 1)
	duration := time.Duration(envInt64("VXSCHAOS_MS", 1500)) * time.Millisecond
	shards := int(envInt64("VXSCHAOS_SHARDS", 2))
	t.Logf("sharded chaos soak: VXSCHAOS_SEED=%d VXSCHAOS_MS=%d VXSCHAOS_SHARDS=%d", seed, duration.Milliseconds(), shards)

	// Build the federation on a clean MemFS: six documents, range-placed
	// so every shard holds real data. Then reopen shard 0 through a
	// FaultFS and the rest clean — partial-shard failure, not whole-fleet.
	mem := storage.NewMemFS()
	const dir = "fed"
	var docs []string
	const perDoc = 80
	for d := 0; d < 6; d++ {
		docs = append(docs, chaosBibRange(d*perDoc, (d+1)*perDoc))
	}
	opts := vectorize.Options{PoolPages: 4, FS: mem}
	cat, err := shard.Build(docs, dir, shard.BuildConfig{Shards: shards, Policy: shard.PolicyRange, Opts: opts})
	if err != nil {
		t.Fatalf("build federation: %v", err)
	}
	ffs := storage.NewFaultFS(mem)
	repos := make([]*vectorize.Repository, shards)
	for k, si := range cat.Shards {
		fsys := storage.FS(mem)
		if k == 0 {
			fsys = ffs
		}
		repo, err := vectorize.Open(filepath.Join(dir, si.Dir), vectorize.Options{PoolPages: 4, FS: fsys})
		if err != nil {
			t.Fatalf("open shard %d: %v", k, err)
		}
		defer repo.Close()
		repo.Store.Pool().SetRetryPolicy(storage.RetryPolicy{
			Retries:    8,
			Backoff:    50 * time.Microsecond,
			MaxBackoff: 500 * time.Microsecond,
			Budget:     1 << 20,
		})
		repos[k] = repo
	}
	fed := &shard.Federation{Dir: dir, Catalog: cat, Shards: repos}
	svc := shard.NewService(fed, core.ServiceConfig{
		PlanCacheSize:   64,
		ResultCacheSize: 4, // smaller than the query mix: both cached and scattered paths run
		MaxInflight:     4,
	})
	readRetries := obs.GetCounter("storage.read_retries").Load()

	// The query mix covers all three miss paths: scattered
	// (publisher/price filters below the root), scattered root-bound
	// transparent (single return path out of /bib), and union fallback
	// (a filter on the root itself).
	var queries []string
	for p := 0; p < 5; p++ {
		queries = append(queries, fmt.Sprintf(
			`for $b in /bib/book where $b/publisher = 'P%d' return $b/title`, p))
	}
	for _, price := range []string{"19", "33", "47"} {
		queries = append(queries, fmt.Sprintf(
			`for $b in /bib/book where $b/price > '%s' return $b/author`, price))
	}
	queries = append(queries,
		`for $x in /bib return $x/book/price`,
		`for $x in /bib where $x/book/publisher = 'P1' return $x/book/title`)
	for _, q := range queries[len(queries)-2:] {
		plan, err := svc.Plan(q)
		if err != nil {
			t.Fatalf("classify %q: %v", q, err)
		}
		if ok, _ := shard.Shardable(plan, cat.RootTag); q == queries[len(queries)-1] && ok {
			t.Fatalf("%q should fall back to the union view", q)
		}
	}

	// Cold, fault-free baselines through the federation itself.
	baseline := make(map[string]string, len(queries))
	for _, q := range queries {
		res, _, err := svc.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("baseline %q: %v", q, err)
		}
		xml, err := res.XML()
		if err != nil {
			t.Fatal(err)
		}
		baseline[q] = xml
	}

	ffs.SetChaos(storage.Chaos{
		Seed:          seed,
		ReadFaultProb: 0.05,
		CorruptProb:   0.01,
		ReadLatency:   50 * time.Microsecond,
	})

	var successes, shed, degraded, transient, corrupt atomic.Int64
	deadline := time.Now().Add(duration)
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			for time.Now().Before(deadline) {
				q := queries[rng.Intn(len(queries))]
				ctx := obs.WithMeter(context.Background(), &obs.TaskMeter{})
				res, _, err := svc.Query(ctx, q)
				var de *shard.DegradedError
				switch {
				case err == nil:
					xml, xerr := res.XML()
					if xerr != nil {
						t.Errorf("worker %d: render: %v", w, xerr)
						return
					}
					if xml != baseline[q] {
						t.Errorf("worker %d: success differs from fault-free baseline for %q", w, q)
						return
					}
					successes.Add(1)
				case errors.Is(err, core.ErrOverloaded):
					shed.Add(1)
				case errors.Is(err, core.ErrInternal):
					t.Errorf("worker %d: internal error (captured panic) under chaos: %v", w, err)
					return
				case errors.As(err, &de):
					// A typed partial-shard failure; the wrapped cause must
					// itself be a classified fault, and the failing shard the
					// flaky one.
					if de.Shard != 0 {
						t.Errorf("worker %d: degraded shard %d, but only shard 0 is flaky: %v", w, de.Shard, err)
						return
					}
					if !errors.Is(err, core.ErrQuarantined) && !errors.Is(err, storage.ErrInjected) &&
						!errors.Is(err, storage.ErrCorrupt) && !errors.Is(err, core.ErrOverloaded) {
						t.Errorf("worker %d: degraded response wraps an unclassified cause: %v", w, err)
						return
					}
					degraded.Add(1)
				case errors.Is(err, core.ErrQuarantined):
					degraded.Add(1)
				case errors.Is(err, storage.ErrCorrupt):
					corrupt.Add(1)
				case errors.Is(err, storage.ErrInjected):
					transient.Add(1)
				default:
					t.Errorf("worker %d: unclassified error under chaos: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	injected, flipped := ffs.InjectedReads(), ffs.CorruptedReads()
	ffs.SetChaos(storage.Chaos{})
	t.Logf("soak: %d ok, %d shed, %d degraded, %d transient, %d corrupt; %d faults + %d bit-flips injected; %d read retries",
		successes.Load(), shed.Load(), degraded.Load(), transient.Load(), corrupt.Load(),
		injected, flipped, obs.GetCounter("storage.read_retries").Load()-readRetries)

	if successes.Load() == 0 {
		t.Error("no query succeeded during the soak")
	}
	if injected == 0 && flipped == 0 {
		t.Error("chaos injected nothing: the soak exercised a healthy disk")
	}

	// Recovery: per-shard re-verify clears every quarantine (the disk
	// underneath was never dirtied), and every answer matches again.
	for k, repo := range fed.Shards {
		if cleared, kept := repo.ReverifyQuarantined(); len(kept) != 0 {
			t.Errorf("shard %d: re-verify kept %v quarantined (cleared %v); the disk is clean", k, kept, cleared)
		}
		if n := repo.Health.Len(); n != 0 {
			t.Errorf("shard %d: health still lists %d vectors after re-verify", k, n)
		}
	}
	for _, q := range queries {
		res, _, err := svc.Query(context.Background(), q)
		if err != nil {
			t.Errorf("post-chaos %q: %v", q, err)
			continue
		}
		xml, err := res.XML()
		if err != nil {
			t.Fatal(err)
		}
		if xml != baseline[q] {
			t.Errorf("post-chaos answer differs from baseline for %q", q)
		}
	}
}

// chaosBibRange builds one bib document holding books [lo, hi) with the
// same tag/value scheme as chaosBib, so a federation over several of
// these equals one chaosBib over the concatenated range.
func chaosBibRange(lo, hi int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b,
			"<book><publisher>P%d</publisher><author>A%d</author><title>Book %d — a title long enough to fill vector pages reasonably fast</title><price>%d</price></book>",
			i%7, i%13, i, 10+i%50)
	}
	b.WriteString("</bib>")
	return b.String()
}
