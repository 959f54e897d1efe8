package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"vxml/internal/shard"
	"vxml/internal/vectorize"
)

// startFederationServer builds a small disk federation and starts a
// Server over it in sharded mode.
func startFederationServer(t *testing.T, shards int, cfg Config) (string, *shard.Federation) {
	t.Helper()
	docs := []string{
		`<bib><book><publisher>SBP</publisher><title>Curation</title></book></bib>`,
		`<bib><book><publisher>SBP</publisher><title>XML</title></book></bib>`,
		`<bib><book><publisher>AW</publisher><title>AXML</title></book></bib>`,
	}
	dir := filepath.Join(t.TempDir(), "fed")
	opts := vectorize.Options{}
	if _, err := shard.Build(docs, dir, shard.BuildConfig{Shards: shards, Policy: shard.PolicyRange, Opts: opts}); err != nil {
		t.Fatalf("build federation: %v", err)
	}
	f, err := shard.OpenFederation(dir, opts)
	if err != nil {
		t.Fatalf("open federation: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	cfg.Federation = f
	base, cancel, done := startServer(t, cfg)
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return base, f
}

func TestFederationQuery(t *testing.T) {
	base, _ := startFederationServer(t, 2, Config{PlanCacheSize: 16, ResultCacheSize: 16})

	resp, qr := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/title`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	for _, title := range []string{"Curation", "XML", "AXML"} {
		if !strings.Contains(qr.Result, title) {
			t.Errorf("result missing %q: %s", title, qr.Result)
		}
	}
	if qr.Cached {
		t.Error("first answer reported cached")
	}
	// Repeat hits the federation's result cache.
	resp2, qr2 := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/title`})
	if resp2.StatusCode != http.StatusOK || !qr2.Cached || qr2.Source != "result-cache" {
		t.Errorf("repeat: status=%d cached=%v source=%q", resp2.StatusCode, qr2.Cached, qr2.Source)
	}
	if qr2.Result != qr.Result {
		t.Error("cached answer differs")
	}

	// A union-fallback query (filters on the root) serves through the
	// same endpoint.
	resp3, qr3 := postQuery(t, base, QueryRequest{Query: `for $x in /bib where $x/book/publisher = 'AW' return $x/book/title`})
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fallback status = %d", resp3.StatusCode)
	}
	if !strings.Contains(qr3.Result, "AXML") {
		t.Errorf("fallback result: %s", qr3.Result)
	}
}

func TestFederationCheck(t *testing.T) {
	base, _ := startFederationServer(t, 2, Config{})
	resp, qr := postQuery(t, base, QueryRequest{Query: `for $b in /bib/nosuch return $b`, Check: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !qr.StaticallyEmpty {
		t.Errorf("check over federation should be statically empty: %s", qr.Result)
	}
	resp2, qr2 := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/title`, Check: true})
	if resp2.StatusCode != http.StatusOK || qr2.StaticallyEmpty {
		t.Errorf("live path reported empty: status=%d %s", resp2.StatusCode, qr2.Result)
	}
}

func TestFederationHealthRollup(t *testing.T) {
	base, f := startFederationServer(t, 3, Config{})

	var hr healthResponse
	getJSON(t, base+"/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" || len(hr.Shards) != 3 {
		t.Fatalf("healthy rollup = %+v", hr)
	}

	// Quarantine a vector in shard 1: the rollup flips to degraded and
	// names the shard; queries touching it degrade with a 503.
	name := f.Shards[1].Vectors.Names()[0]
	f.Shards[1].Health.Quarantine(name, "test fence")
	getJSON(t, base+"/healthz", http.StatusOK, &hr)
	if hr.Status != "degraded" {
		t.Errorf("status = %q, want degraded", hr.Status)
	}
	for _, sh := range hr.Shards {
		wantDegraded := sh.Shard == 1
		if (sh.Status == "degraded") != wantDegraded {
			t.Errorf("shard %d status = %q", sh.Shard, sh.Status)
		}
	}
	resp, _ := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/publisher`})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("degraded query status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded response missing Retry-After")
	}

	// The quarantine-clear endpoint re-verifies per shard; the vector is
	// intact on disk, so it comes back prefixed with its shard.
	creq, err := http.Post(base+"/debug/quarantine/clear", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer creq.Body.Close()
	var cleared map[string][]string
	if err := json.NewDecoder(creq.Body).Decode(&cleared); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("shard1/%s", name)
	if len(cleared["cleared"]) != 1 || cleared["cleared"][0] != want {
		t.Errorf("cleared = %v, want [%s]", cleared["cleared"], want)
	}
	getJSON(t, base+"/healthz", http.StatusOK, &hr)
	if hr.Status != "ok" {
		t.Errorf("post-clear status = %q", hr.Status)
	}
	resp2, qr := postQuery(t, base, QueryRequest{Query: `for $b in /bib/book return $b/publisher`})
	if resp2.StatusCode != http.StatusOK || !strings.Contains(qr.Result, "SBP") {
		t.Errorf("post-clear query: status=%d result=%s", resp2.StatusCode, qr.Result)
	}
}

func TestFederationShardsEndpoint(t *testing.T) {
	base, f := startFederationServer(t, 2, Config{})
	var st []shard.ShardStatus
	getJSON(t, base+"/debug/shards", http.StatusOK, &st)
	if len(st) != 2 {
		t.Fatalf("shard rows = %d", len(st))
	}
	totalDocs := 0
	for k, row := range st {
		if row.Shard != k || row.Dir == "" {
			t.Errorf("row %d = %+v", k, row)
		}
		totalDocs += row.Docs
	}
	if totalDocs != f.Catalog.NumDocs() {
		t.Errorf("status docs = %d, want %d", totalDocs, f.Catalog.NumDocs())
	}

	// Non-federation servers refuse the endpoint.
	base2, cancel, done := startServer(t, Config{})
	defer func() {
		cancel()
		<-done
	}()
	resp, err := http.Get(base2 + "/debug/shards")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("single-repo /debug/shards status = %d", resp.StatusCode)
	}
}

// getJSON fetches url expecting status and decodes the body into out.
func getJSON(t *testing.T, url string, status int, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != status {
		t.Fatalf("GET %s status = %d, want %d", url, resp.StatusCode, status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}
