package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"
	"time"

	"vxml/internal/serve"
	"vxml/internal/vectorize"
)

// overheadBatch is how many operations one timed batch runs: a
// quick-scale KQ1 is ~100µs, so a batch has to span a few milliseconds
// before scheduler jitter stops dominating it.
const overheadBatch = 64

// overheadReading is one overhead estimate: the median per-operation time
// of each mode and the median of the per-round on/off ratios, as a
// percentage over the off mode.
type overheadReading struct {
	off, on time.Duration
	pct     float64
}

// pairedOverhead times rounds of one overheadBatch of off and one of on,
// alternating which goes first, after an untimed warm-up batch of each.
// The overhead is the median of the per-round on/off ratios: pairing the
// two modes inside a round cancels ambient load that drifts between
// rounds, which comparing two independent medians does not.
func pairedOverhead(rounds int, off, on func()) overheadReading {
	batch := func(op func()) time.Duration {
		start := time.Now()
		for j := 0; j < overheadBatch; j++ {
			op()
		}
		return time.Since(start) / overheadBatch
	}
	batch(off)
	batch(on)
	offs := make([]time.Duration, rounds)
	ons := make([]time.Duration, rounds)
	ratios := make([]float64, rounds)
	for i := range rounds {
		if i%2 == 0 {
			offs[i], ons[i] = batch(off), batch(on)
		} else {
			ons[i], offs[i] = batch(on), batch(off)
		}
		ratios[i] = float64(ons[i]) / float64(offs[i])
	}
	slices.Sort(offs)
	slices.Sort(ons)
	slices.Sort(ratios)
	return overheadReading{off: offs[rounds/2], on: ons[rounds/2], pct: (ratios[rounds/2] - 1) * 100}
}

// requireOverheadBounded fails t unless one of three 15-round readings of
// on against off is within 25%. The bound is deliberately loose for noisy
// shared runners. Ambient load on a shared host inflates a reading now
// and then; the regressions these gates exist to catch inflate every one.
func requireOverheadBounded(t *testing.T, what string, off, on func()) {
	t.Helper()
	const attempts, rounds, bound = 3, 15, 25
	for a := 1; a <= attempts; a++ {
		r := pairedOverhead(rounds, off, on)
		t.Logf("%s (attempt %d): off=%s on=%s overhead=%.1f%% (batch=%d)", what, a, r.off, r.on, r.pct, overheadBatch)
		if r.pct <= bound {
			return
		}
	}
	t.Errorf("%s exceeded %d%% on all %d attempts", what, bound, attempts)
}

// spanQueries returns one KQ1 request through a serve handler with
// request tracing off and one through a handler with it on. Neither has
// a result cache, so every request evaluates, and the traced handler
// keeps 1 healthy request in 16 in its ring (the serving default), so the
// amortized cost of building kept records, span trees included, is part
// of the on side.
func spanQueries(tb testing.TB) (off, on func()) {
	tb.Helper()
	h := quickHarness(tb)
	d, err := h.Dataset(DatasetOf(KQ1))
	if err != nil {
		tb.Fatal(err)
	}
	repo, err := vectorize.Open(d.RepoDir, vectorize.Options{PoolPages: h.Cfg.PoolPages})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { repo.Close() })
	body, err := json.Marshal(serve.QueryRequest{Query: QuerySources[KQ1]})
	if err != nil {
		tb.Fatal(err)
	}
	query := func(tracing bool) func() {
		handler := serve.New(serve.Config{
			Repo:          repo,
			PlanCacheSize: 16,
			Tracing:       tracing,
			TraceSample:   16,
			Log:           log.New(io.Discard, "", 0),
		}).Handler()
		return func() {
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
			if w.Code != http.StatusOK {
				tb.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
			}
		}
	}
	return query(false), query(true)
}

// BenchmarkSpanOverhead measures serving KQ1 through the HTTP handler
// with request tracing off (no span is minted) against tracing on (a span
// tree per request: the serve.request root, plan, core.query, cache
// probe, admission, eval, plus 1-in-16 ring retention), one paired round
// per iteration. The budget is <1% on quiet hardware.
func BenchmarkSpanOverhead(b *testing.B) {
	off, on := spanQueries(b)
	b.ResetTimer()
	r := pairedOverhead(b.N, off, on)
	b.ReportMetric(float64(r.off.Microseconds()), "off-µs/query")
	b.ReportMetric(float64(r.on.Microseconds()), "on-µs/query")
	b.ReportMetric(r.pct, "overhead-%")
}

// TestSpanOverheadBounded checks the tracing overhead through the same
// paired measurement as BenchmarkSpanOverhead. It catches a rewrite that
// makes a traced query much dearer than an untraced one, such as
// assembling trees for requests the ring drops.
func TestSpanOverheadBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive; skipped in -short")
	}
	off, on := spanQueries(t)
	requireOverheadBounded(t, "span overhead (1-in-16 sampling)", off, on)
}
