package testgen

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vxml/internal/core"
	"vxml/internal/obs"
	"vxml/internal/storage"
	"vxml/internal/vectorize"
)

// The chaos soak: flaky-media fault injection against the full serving
// stack (core.Service over an on-disk repository), asserting the
// fault-tolerance contract of the robustness layer:
//
//   - the process never dies;
//   - every response is a success byte-identical to the fault-free
//     baseline, an admission shed (ErrOverloaded), a quarantine fence
//     (ErrQuarantined), or a typed storage fault (ErrInjected /
//     ErrCorrupt) — never an unclassified error, never ErrInternal;
//   - after injection stops and a re-verify runs, the repository is
//     healthy again and every query answers exactly as before the chaos.
//
// Environment knobs (the CI smoke pins a seed; the nightly soak runs a
// fresh one — both print it, so any failure replays exactly):
//
//	VXCHAOS_SEED  chaos dice seed (default 1)
//	VXCHAOS_MS    soak duration in milliseconds (default 1500)
func TestChaosSoak(t *testing.T) {
	seed := envInt64("VXCHAOS_SEED", 1)
	duration := time.Duration(envInt64("VXCHAOS_MS", 1500)) * time.Millisecond
	t.Logf("chaos soak: VXCHAOS_SEED=%d VXCHAOS_MS=%d", seed, duration.Milliseconds())

	// Build the repository on a clean MemFS, then reopen it through a
	// FaultFS. The pool is kept far smaller than the working set so
	// queries keep reading the (flaky) disk instead of serving every page
	// from cache.
	mem := storage.NewMemFS()
	const dir = "repo"
	repo, err := vectorize.Create(strings.NewReader(chaosBib(500)), dir, vectorize.Options{PoolPages: 4, FS: mem})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(mem)
	repo, err = vectorize.Open(dir, vectorize.Options{PoolPages: 4, FS: ffs})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	defer repo.Close()
	repo.Store.Pool().SetRetryPolicy(storage.RetryPolicy{
		Retries:    8,
		Backoff:    50 * time.Microsecond,
		MaxBackoff: 500 * time.Microsecond,
		Budget:     1 << 20,
	})
	svc := core.NewService(repo, core.ServiceConfig{
		PlanCacheSize:   64,
		ResultCacheSize: 4, // smaller than the query mix: both cached and evaluated paths run
		MaxInflight:     4, // smaller than the worker count: admission sheds under the burst
	})

	var queries []string
	for p := 0; p < 7; p++ {
		queries = append(queries, fmt.Sprintf(
			`<result> for $b in doc("bib.xml")/bib/book where $b/publisher = 'P%d' return $b/title </result>`, p))
	}
	for _, price := range []string{"19", "33", "47"} {
		queries = append(queries, fmt.Sprintf(
			`<result> for $b in doc("bib.xml")/bib/book where $b/price > '%s' return $b/author </result>`, price))
	}

	// Cold, fault-free baselines: the byte-exact answers every chaos-time
	// success (cached or freshly evaluated) must reproduce.
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

	var successes, shed, fenced, transient, corrupt atomic.Int64
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
				case errors.Is(err, core.ErrQuarantined):
					fenced.Add(1)
				case errors.Is(err, core.ErrInternal):
					t.Errorf("worker %d: internal error (captured panic) under chaos: %v", w, err)
					return
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
	t.Logf("soak: %d ok, %d shed, %d quarantine-fenced, %d transient, %d corrupt; %d faults + %d bit-flips injected; %d retries",
		successes.Load(), shed.Load(), fenced.Load(), transient.Load(), corrupt.Load(),
		injected, flipped, obs.GetCounter("storage.read_retries").Load())

	if successes.Load() == 0 {
		t.Error("no query succeeded during the soak")
	}
	if injected == 0 && flipped == 0 {
		t.Error("chaos injected nothing: the soak exercised a healthy disk")
	}

	// Recovery: the disk underneath was never dirtied (chaos corrupts
	// reads, not files), so a re-verify must clear every quarantine and
	// every answer must match the cold baseline again.
	if cleared, kept := repo.ReverifyQuarantined(); len(kept) != 0 {
		t.Errorf("re-verify after chaos kept %v quarantined (cleared %v); the disk is clean", kept, cleared)
	}
	if n := repo.Health.Len(); n != 0 {
		t.Errorf("health still lists %d vectors after re-verify", n)
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

// chaosBib builds a bib document whose vectors comfortably exceed the
// soak's four-page buffer pool.
func chaosBib(n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b,
			"<book><publisher>P%d</publisher><author>A%d</author><title>Book %d — a title long enough to fill vector pages reasonably fast</title><price>%d</price></book>",
			i%7, i%13, i, 10+i%50)
	}
	b.WriteString("</bib>")
	return b.String()
}
