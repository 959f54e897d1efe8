package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
)

// genServeBib builds a bib document big enough that the title vector
// fills pages of its own (the corruption tests poison one).
func genServeBib(n int) string {
	var b strings.Builder
	b.WriteString("<bib>")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "<book><publisher>P%d</publisher><author>A%d</author><title>Book %d — a title long enough to fill vector pages reasonably fast</title></book>", i%7, i%13, i)
	}
	b.WriteString("</bib>")
	return b.String()
}

// createServeRepo builds a disk repository for doc.
func createServeRepo(t *testing.T, doc string) *vectorize.Repository {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "repo")
	repo, err := vectorize.Create(strings.NewReader(doc), dir, vectorize.Options{})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo
}

// titlePage returns the full path of repo's vector segment and the offset
// there of a byte on a page only the /bib/book/title vector uses.
func titlePage(t *testing.T, repo *vectorize.Repository) (string, int64) {
	t.Helper()
	set, ok := repo.Vectors.(*vector.DiskSet)
	if !ok {
		t.Fatal("repository vectors are not a DiskSet")
	}
	ext, ok := set.Extents(titleVector)
	if !ok || len(ext) < 2 {
		t.Fatalf("%s has extents %v, want a full page and more", titleVector, ext)
	}
	return set.Segment().Path(), ext[0].Page*storage.PageSize + int64(ext[0].Off) + 64
}

const titleVector = "/bib/book/title"

// xorFileByte XORs one byte of the file at path with 0xA5 (its own
// inverse: applying it twice restores the original).
func xorFileByte(t *testing.T, path string, off int64) {
	t.Helper()
	h, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	b := make([]byte, 1)
	if _, err := h.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	if _, err := h.WriteAt([]byte{b[0] ^ 0xA5}, off); err != nil {
		t.Fatal(err)
	}
}

func getHealth(t *testing.T, base string) (int, healthResponse) {
	t.Helper()
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("decode /healthz: %v", err)
	}
	return resp.StatusCode, hr
}

func postClear(t *testing.T, base string) (int, map[string][]string) {
	t.Helper()
	resp, err := http.Post(base+"/debug/quarantine/clear", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /debug/quarantine/clear: %v", err)
	}
	defer resp.Body.Close()
	var body map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode clear response: %v", err)
	}
	return resp.StatusCode, body
}

// TestQuarantineLifecycleHTTP drives the whole degraded-health story over
// the HTTP surface: a corrupt page fails its first query with 500 and
// quarantines the vector; /healthz goes degraded; later queries get 503 +
// Retry-After (distinct from 429); a re-verify against still-bad bytes
// keeps the quarantine; repairing the file and re-verifying clears it and
// /healthz returns to ok.
func TestQuarantineLifecycleHTTP(t *testing.T) {
	repo := createServeRepo(t, genServeBib(200))
	segPath, poisonOff := titlePage(t, repo)
	xorFileByte(t, segPath, poisonOff) // poison a title page
	base, cancel, done := startServer(t, Config{Repo: repo})
	defer func() { cancel(); <-done }()

	const query = `for $b in /bib/book return $b/title`

	resp, _ := postQuery(t, base, QueryRequest{Query: query})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("query over corrupt page: status = %d, want 500", resp.StatusCode)
	}

	status, hr := getHealth(t, base)
	if status != http.StatusOK || hr.Status != "degraded" {
		t.Fatalf("healthz = %d %q, want 200 degraded", status, hr.Status)
	}
	if len(hr.Quarantined) != 1 || hr.Quarantined[0].Vector != titleVector {
		t.Fatalf("healthz quarantined = %v, want exactly [%s]", hr.Quarantined, titleVector)
	}

	resp, _ = postQuery(t, base, QueryRequest{Query: query})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query on quarantined vector: status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "60" {
		t.Errorf("Retry-After = %q, want 60", ra)
	}

	// Queries not touching the quarantined vector still succeed: the
	// repository is degraded, not down.
	resp, _ = postQuery(t, base, QueryRequest{Query: `for $b in /bib/book where $b/publisher = 'P3' return $b/author`})
	if resp.StatusCode != http.StatusOK {
		t.Errorf("query avoiding quarantined vector: status = %d, want 200", resp.StatusCode)
	}

	// Re-verify while the bytes are still wrong: kept, not cleared.
	status, body := postClear(t, base)
	if status != http.StatusOK {
		t.Fatalf("clear status = %d", status)
	}
	if len(body["cleared"]) != 0 || len(body["kept"]) != 1 || body["kept"][0] != titleVector {
		t.Fatalf("clear while corrupt = %v, want kept=[%s]", body, titleVector)
	}

	// Repair the byte (XOR is its own inverse) and re-verify: cleared.
	xorFileByte(t, segPath, poisonOff)
	status, body = postClear(t, base)
	if status != http.StatusOK {
		t.Fatalf("clear status = %d", status)
	}
	if len(body["cleared"]) != 1 || body["cleared"][0] != titleVector || len(body["kept"]) != 0 {
		t.Fatalf("clear after repair = %v, want cleared=[%s]", body, titleVector)
	}
	if status, hr = getHealth(t, base); status != http.StatusOK || hr.Status != "ok" || len(hr.Quarantined) != 0 {
		t.Fatalf("healthz after repair = %d %+v, want 200 ok", status, hr)
	}

	resp, qr := postQuery(t, base, QueryRequest{Query: query})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after repair: status = %d, want 200", resp.StatusCode)
	}
	if got := strings.Count(qr.Result, "<title>"); got != 200 {
		t.Errorf("post-repair result has %d titles, want 200", got)
	}

	// The clear endpoint is POST-only.
	getResp, err := http.Get(base + "/debug/quarantine/clear")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /debug/quarantine/clear status = %d, want 405", getResp.StatusCode)
	}
}

// panicOnScanSet poisons one vector of the wrapped Set so its Scan
// panics — the HTTP-level panic injection seam (repo.Vectors is public
// exactly so tests can wrap it).
type panicOnScanSet struct {
	vector.Set
	trigger string
}

func (s *panicOnScanSet) Vector(name string) (vector.Vector, error) {
	v, err := s.Set.Vector(name)
	if err == nil && name == s.trigger {
		return &panicOnScanVector{v}, nil
	}
	return v, err
}

type panicOnScanVector struct{ vector.Vector }

func (p *panicOnScanVector) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	panic("injected: serve panic probe")
}

// TestPanicIsolationHTTP pins the serving contract for defects: a query
// that panics gets a 500 (one poisoned query, not a dead process), the
// capture shows up at /debug/panics with its stack, and concurrent
// queries on clean vectors complete normally throughout.
func TestPanicIsolationHTTP(t *testing.T) {
	repo := createServeRepo(t, genServeBib(50))
	repo.Vectors = &panicOnScanSet{Set: repo.Vectors, trigger: titleVector}
	base, cancel, done := startServer(t, Config{Repo: repo})
	defer func() { cancel(); <-done }()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := strings.NewReader(fmt.Sprintf(`for $b in /bib/book where $b/publisher = 'P%d' return $b/author`, g%7))
			resp, err := http.Post(base+"/query", "text/plain", body)
			if err != nil {
				t.Errorf("clean query %d: %v", g, err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("clean query %d: status = %d, want 200", g, resp.StatusCode)
			}
		}(g)
	}

	resp, err := http.Post(base+"/query", "text/plain",
		strings.NewReader(`for $b in /bib/book return $b/title`))
	if err != nil {
		t.Fatalf("poisoned query: %v", err)
	}
	var eresp struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&eresp); err != nil {
		t.Fatalf("decode poisoned response: %v", err)
	}
	resp.Body.Close()
	wg.Wait()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("poisoned query status = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(eresp.Error, "panicked") {
		t.Errorf("poisoned query error = %q, want a panic message", eresp.Error)
	}

	// The capture is on /debug/panics, newest first, with the stack.
	panicsResp, err := http.Get(base + "/debug/panics")
	if err != nil {
		t.Fatal(err)
	}
	var records []Record
	if err := json.NewDecoder(panicsResp.Body).Decode(&records); err != nil {
		t.Fatalf("decode /debug/panics: %v", err)
	}
	panicsResp.Body.Close()
	if len(records) == 0 {
		t.Fatal("/debug/panics is empty after a captured panic")
	}
	rec := records[0]
	if !strings.Contains(rec.Panic, "injected: serve panic probe") || rec.Outcome != "panic" {
		t.Errorf("newest panic value = %q, outcome %q; want the injected value, panic", rec.Panic, rec.Outcome)
	}
	if !strings.Contains(rec.Stack, "panicOnScanVector") {
		t.Errorf("panic stack does not show the panicking frame:\n%s", rec.Stack)
	}
	if !strings.Contains(rec.Query, "return $b/title") {
		t.Errorf("panic record query = %q, want the poisoned query text", rec.Query)
	}

	// The process survived: the same server keeps answering.
	after, err := http.Post(base+"/query", "text/plain",
		strings.NewReader(`for $b in /bib/book return $b/author`))
	if err != nil {
		t.Fatalf("query after panic: %v", err)
	}
	io.Copy(io.Discard, after.Body)
	after.Body.Close()
	if after.StatusCode != http.StatusOK {
		t.Errorf("query after panic: status = %d, want 200", after.StatusCode)
	}
}

// TestHealthzStatuses drives the three /healthz states through the
// handler directly: ok (200), degraded (200 — still serving), and
// draining (503 — stop routing here).
func TestHealthzStatuses(t *testing.T) {
	repo := createServeRepo(t, genServeBib(10))
	srv := New(Config{Repo: repo, Log: testLogger()})

	get := func() (int, healthResponse) {
		rr := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var hr healthResponse
		if err := json.NewDecoder(rr.Body).Decode(&hr); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return rr.Code, hr
	}

	if code, hr := get(); code != http.StatusOK || hr.Status != "ok" {
		t.Errorf("healthy: %d %q, want 200 ok", code, hr.Status)
	}
	repo.Health.Quarantine(titleVector, "test poison")
	if code, hr := get(); code != http.StatusOK || hr.Status != "degraded" || len(hr.Quarantined) != 1 {
		t.Errorf("degraded: %d %+v, want 200 degraded with one entry", code, hr)
	}
	// Draining trumps degraded, and flips the status code: a degraded
	// server still takes traffic, a draining one must not.
	srv.draining.Store(true)
	if code, hr := get(); code != http.StatusServiceUnavailable || hr.Status != "draining" {
		t.Errorf("draining: %d %q, want 503 draining", code, hr.Status)
	}
}

// TestRunFlipsDrainingOnShutdown checks Run marks the server draining
// when its context is cancelled, before the listener closes.
func TestRunFlipsDrainingOnShutdown(t *testing.T) {
	base, cancel, done := startServer(t, Config{})
	if code, hr := getHealth(t, base); code != http.StatusOK || hr.Status != "ok" {
		t.Fatalf("healthz before shutdown = %d %q", code, hr.Status)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("Run = %v, want nil on clean shutdown", err)
	}
}

func testLogger() *log.Logger { return log.New(io.Discard, "", 0) }
