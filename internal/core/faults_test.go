package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"vxml/internal/obs"
	"vxml/internal/qgraph"
	"vxml/internal/storage"
	"vxml/internal/vector"
	"vxml/internal/vectorize"
)

// openFaultRepo builds a repository on a MemFS, then reopens it through a
// FaultFS so tests can inject read faults and corruption at the FS layer.
func openFaultRepo(t testing.TB, doc string, poolPages int) (*vectorize.Repository, *storage.FaultFS, *storage.MemFS) {
	t.Helper()
	mem := storage.NewMemFS()
	const dir = "repo"
	r, err := vectorize.Create(strings.NewReader(doc), dir, vectorize.Options{PoolPages: poolPages, FS: mem})
	if err != nil {
		t.Fatalf("create repo: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := storage.NewFaultFS(mem)
	repo, err := vectorize.Open(dir, vectorize.Options{PoolPages: poolPages, FS: ffs})
	if err != nil {
		t.Fatalf("open repo: %v", err)
	}
	t.Cleanup(func() { repo.Close() })
	return repo, ffs, mem
}

// bookTitleVector returns the /bib/book/title vector's name, the segment
// file holding it (its full path on the repository's FS, and the file) and
// the segment offset of a byte inside its first extent, which is on a page
// of its own.
func bookTitleVector(t testing.TB, repo *vectorize.Repository) (name, path string, file *storage.File, off int64) {
	t.Helper()
	set, ok := repo.Vectors.(*vector.DiskSet)
	if !ok {
		t.Fatal("repository vectors are not a DiskSet")
	}
	for _, n := range set.Names() {
		if strings.Contains(n, "/book/") && strings.HasSuffix(n, "/title") {
			name = n
			break
		}
	}
	if name == "" {
		t.Fatalf("no book title vector among %v", set.Names())
	}
	ext, _ := set.Extents(name)
	if len(ext) < 2 {
		t.Fatalf("vector %q has %d extents, want a full page and more", name, len(ext))
	}
	return name, set.Segment().Path(), set.Segment(), ext[0].Page*storage.PageSize + int64(ext[0].Off) + 64
}

// flipByteAt XORs one byte of the file at path on fsys, returning the
// original byte so the test can restore it.
func flipByteAt(t testing.TB, fsys storage.FS, path string, off int64) byte {
	t.Helper()
	h, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
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
	return b[0]
}

func restoreByteAt(t testing.TB, fsys storage.FS, path string, off int64, orig byte) {
	t.Helper()
	h, err := fsys.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if _, err := h.WriteAt([]byte{orig}, off); err != nil {
		t.Fatal(err)
	}
}

// TestPersistentCorruptionQuarantinesPoisonedVector pins the quarantine
// path end to end: a durably corrupted page fails its query with
// ErrCorrupt and quarantines exactly the poisoned vector; later queries
// fail fast with ErrQuarantined and zero disk reads; a re-verify keeps
// the quarantine while the bytes are wrong and clears it once repaired,
// after which results are byte-identical to the pre-corruption baseline.
func TestPersistentCorruptionQuarantinesPoisonedVector(t *testing.T) {
	repo, _, mem := openFaultRepo(t, genBib(300), 64)
	plan := planFor(t, concurrentQueries[0]) // touches book publisher + title
	ctx := context.Background()

	res, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	if err != nil {
		t.Fatalf("baseline eval: %v", err)
	}
	want, err := fingerprint(res.Skel, res.Syms, res.Vectors)
	if err != nil {
		t.Fatal(err)
	}

	// Corrupt a page only the title vector uses.
	name, path, file, poisonOff := bookTitleVector(t, repo)
	orig := flipByteAt(t, mem, path, poisonOff)
	// The baseline cached the now-poisoned page; force the next query back
	// to the disk.
	if err := repo.Store.Pool().DropFile(file); err != nil {
		t.Fatal(err)
	}

	added := obs.GetCounter("storage.quarantine_added")
	rereads := obs.GetCounter("storage.corrupt_rereads")
	quarantinedQueries := obs.GetCounter("core.queries_quarantined")
	added0, rereads0, qq0 := added.Load(), rereads.Load(), quarantinedQueries.Load()

	_, err = NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("eval over corrupt page = %v, want ErrCorrupt", err)
	}
	list := repo.Health.List()
	if len(list) != 1 || list[0].Vector != name {
		t.Fatalf("quarantined = %v, want exactly [%s]", list, name)
	}
	if d := added.Load() - added0; d != 1 {
		t.Errorf("storage.quarantine_added delta = %d, want 1", d)
	}
	if d := rereads.Load() - rereads0; d != 1 {
		t.Errorf("storage.corrupt_rereads delta = %d, want 1 (the immediate re-read, nothing more)", d)
	}

	// Fail fast: the second and third queries get the typed error before
	// any disk I/O — the poisoned page is never re-read.
	_, err = NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	var qe *QuarantinedError
	if !errors.Is(err, ErrQuarantined) || !errors.As(err, &qe) || qe.Vector != name {
		t.Fatalf("second eval = %v, want QuarantinedError for %s", err, name)
	}
	reads2 := repo.Store.Pool().StatsSnapshot().PagesRead
	_, err = NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("third eval = %v, want ErrQuarantined", err)
	}
	if d := repo.Store.Pool().StatsSnapshot().PagesRead - reads2; d != 0 {
		t.Errorf("PagesRead delta on fail-fast query = %d, want 0", d)
	}
	if d := rereads.Load() - rereads0; d != 1 {
		t.Errorf("storage.corrupt_rereads delta after fail-fast queries = %d, want still 1", d)
	}
	if d := quarantinedQueries.Load() - qq0; d != 2 {
		t.Errorf("core.queries_quarantined delta = %d, want 2", d)
	}

	// Re-verify while the bytes are still wrong: the vector stays
	// quarantined.
	cleared, kept := repo.ReverifyQuarantined()
	if len(cleared) != 0 || len(kept) != 1 || kept[0] != name {
		t.Fatalf("reverify while corrupt: cleared=%v kept=%v, want kept=[%s]", cleared, kept, name)
	}

	// Repair the byte and re-verify: the quarantine clears and queries
	// return the exact pre-corruption result.
	restoreByteAt(t, mem, path, poisonOff, orig)
	cleared, kept = repo.ReverifyQuarantined()
	if len(cleared) != 1 || cleared[0] != name || len(kept) != 0 {
		t.Fatalf("reverify after repair: cleared=%v kept=%v, want cleared=[%s]", cleared, kept, name)
	}
	if n := repo.Health.Len(); n != 0 {
		t.Fatalf("health still lists %d vectors after repair", n)
	}
	res, err = NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	if err != nil {
		t.Fatalf("eval after repair: %v", err)
	}
	got, err := fingerprint(res.Skel, res.Syms, res.Vectors)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Error("post-repair result differs from pre-corruption baseline")
	}
}

// TestSharedPageCorruption: vectors A (book publishers) and B (book
// titles, whose tail is packed beside A) share a page that goes bad. A
// query reading A quarantines A, and later ones fail fast without reading
// the page again; B is not quarantined on A's account — it opens and reads
// cleanly from its own pages until a scan of B reaches the shared one, and
// that query quarantines B. Once the page is repaired, a re-verify clears
// both and results match the pre-corruption baseline.
func TestSharedPageCorruption(t *testing.T) {
	var doc strings.Builder
	doc.WriteString("<bib>")
	for i := 0; i < 250; i++ {
		fmt.Fprintf(&doc, "<book><publisher>P%d</publisher><title>Book %d — a title long enough to fill vector pages reasonably fast</title></book>", i%7, i)
	}
	doc.WriteString("</bib>")
	repo, _, mem := openFaultRepo(t, doc.String(), 64)
	set := repo.Vectors.(*vector.DiskSet)
	const a, b = "/bib/book/publisher", "/bib/book/title"
	extA, _ := set.Extents(a)
	extB, _ := set.Extents(b)
	shared := extA[0].Page
	if len(extA) != 1 || len(extB) < 2 || extB[len(extB)-1].Page != shared || extB[0].Page == shared {
		t.Fatalf("extents %v and %v: want A on one page that B's tail shares, and B's head elsewhere", extA, extB)
	}
	ctx := context.Background()
	queryA := planFor(t, `<result> for $b in doc("bib.xml")/bib/book return $b/publisher </result>`)
	queryB := planFor(t, `<result> for $b in doc("bib.xml")/bib/book return $b/title </result>`)
	baseline := func(plan *qgraph.Plan) string {
		res, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
		if err != nil {
			t.Fatalf("eval: %v", err)
		}
		fp, err := fingerprint(res.Skel, res.Syms, res.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	wantA, wantB := baseline(queryA), baseline(queryB)

	path := set.Segment().Path()
	off := shared*storage.PageSize + int64(extA[0].Off) + 1
	orig := flipByteAt(t, mem, path, off)
	if err := repo.Store.Pool().DropFile(set.Segment()); err != nil {
		t.Fatal(err)
	}

	if _, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, queryA); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("query on A = %v, want ErrCorrupt", err)
	}
	if list := repo.Health.List(); len(list) != 1 || list[0].Vector != a {
		t.Fatalf("quarantined = %v, want exactly [%s]", list, a)
	}
	reads := repo.Store.Pool().StatsSnapshot().PagesRead
	if _, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, queryA); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("second query on A = %v, want ErrQuarantined", err)
	}
	if d := repo.Store.Pool().StatsSnapshot().PagesRead - reads; d != 0 {
		t.Errorf("fail-fast query read %d pages, want 0", d)
	}

	v, err := repo.Vectors.Vector(b)
	if err != nil {
		t.Fatalf("open B: %v", err)
	}
	if err := v.Scan(0, int64(extB[0].N), func(int64, []byte) error { return nil }); err != nil {
		t.Errorf("B's own page: %v", err)
	}
	if _, ok := repo.Health.Quarantined(b); ok {
		t.Error("B quarantined before any scan of it reached the shared page")
	}
	if _, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, queryB); !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("query on B = %v, want ErrCorrupt", err)
	}
	if n := repo.Health.Len(); n != 2 {
		t.Fatalf("%d vectors quarantined, want A and B", n)
	}

	restoreByteAt(t, mem, path, off, orig)
	cleared, kept := repo.ReverifyQuarantined()
	if len(cleared) != 2 || len(kept) != 0 {
		t.Fatalf("reverify after repair: cleared=%v kept=%v, want both cleared", cleared, kept)
	}
	if baseline(queryA) != wantA || baseline(queryB) != wantB {
		t.Error("post-repair results differ from the pre-corruption baseline")
	}
}

// TestTransientChaosRetriesToZeroFailures pins the retry contract: under
// heavy injected transient faults every query still succeeds with the
// exact fault-free result, storage.read_retries grows by exactly the
// number of injected faults, and no retry budget is exhausted.
func TestTransientChaosRetriesToZeroFailures(t *testing.T) {
	// A two-page pool keeps every query reading the disk, where the faults
	// are — a larger pool would cache the working set after the first eval
	// and the chaos dice would never roll.
	repo, ffs, _ := openFaultRepo(t, genBib(300), 2)
	repo.Store.Pool().SetRetryPolicy(storage.RetryPolicy{
		Retries:    12,
		Backoff:    20 * time.Microsecond,
		MaxBackoff: 200 * time.Microsecond,
		Budget:     1 << 20,
	})
	plan := planFor(t, concurrentQueries[0])
	ctx := context.Background()

	res, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
	if err != nil {
		t.Fatalf("baseline eval: %v", err)
	}
	want, err := fingerprint(res.Skel, res.Syms, res.Vectors)
	if err != nil {
		t.Fatal(err)
	}

	retries := obs.GetCounter("storage.read_retries")
	exhausted := obs.GetCounter("storage.read_retry_exhausted")
	retries0, exhausted0 := retries.Load(), exhausted.Load()
	ffs.SetChaos(storage.Chaos{Seed: 123, ReadFaultProb: 0.3})
	failures := 0
	for i := 0; i < 12; i++ {
		res, err := NewRepoEngine(repo, Options{Workers: 1}).Eval(ctx, plan)
		if err != nil {
			failures++
			t.Errorf("eval %d under chaos: %v", i, err)
			continue
		}
		got, err := fingerprint(res.Skel, res.Syms, res.Vectors)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("eval %d under chaos differs from fault-free result", i)
		}
	}
	injected := ffs.InjectedReads()
	ffs.SetChaos(storage.Chaos{})

	if failures != 0 {
		t.Fatalf("%d query failures under transient-only chaos, want 0", failures)
	}
	if injected == 0 {
		t.Fatal("chaos injected no faults: the test exercised nothing")
	}
	if d := retries.Load() - retries0; d != injected {
		t.Errorf("storage.read_retries delta = %d, want %d (one per injected fault)", d, injected)
	}
	if d := exhausted.Load() - exhausted0; d != 0 {
		t.Errorf("storage.read_retry_exhausted delta = %d, want 0", d)
	}
}

// panicSet passes through to the wrapped Set, poisoning one vector so its
// Scan panics — the injection seam for the panic-isolation tests.
type panicSet struct {
	vector.Set
	trigger string
}

func (s *panicSet) Vector(name string) (vector.Vector, error) {
	v, err := s.Set.Vector(name)
	if err == nil && name == s.trigger {
		return &panicVector{v}, nil
	}
	return v, err
}

type panicVector struct{ vector.Vector }

func (p *panicVector) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	panic("injected: poisoned vector scan")
}

// poisonedEngine returns an engine whose book-title vector panics on Scan.
func poisonedEngine(t testing.TB, repo *vectorize.Repository, opts Options) *Engine {
	t.Helper()
	name, _, _, _ := bookTitleVector(t, repo)
	e := NewEngine(repo.Skel, repo.Classes, &panicSet{Set: repo.Vectors, trigger: name}, repo.Syms, opts)
	e.Health = repo.Health
	return e
}

// TestPanicIsolation pins the recover boundary: a query that panics fails
// with a typed ErrInternal carrying the stack, the capture lands in the
// panic ring, and concurrent queries on the same repository complete
// normally — the process, and the traffic, survive.
func TestPanicIsolation(t *testing.T) {
	repo := openDiskRepo(t, genBib(300), 64)
	plan := planFor(t, concurrentQueries[0])
	ctx := context.Background()

	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"serial", Options{Workers: 1}},
		// Workers>1 exercises the fan-out: a panic on a worker goroutine
		// cannot unwind to the eval boundary's recover, so parallelFor
		// forwards it as a *PanicError through the error channel.
		{"workers", Options{Workers: 4}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			panics := obs.GetCounter("core.query_panics")
			panics0 := panics.Load()
			ring0 := len(obs.Panics.List())

			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					res, err := NewRepoEngine(repo, tc.opts).Eval(ctx, plan)
					if err != nil {
						t.Errorf("concurrent clean query %d: %v", g, err)
						return
					}
					if res.Skel == nil {
						t.Errorf("concurrent clean query %d: nil skeleton", g)
					}
				}(g)
			}

			_, err := poisonedEngine(t, repo, tc.opts).Eval(ctx, plan)
			wg.Wait()
			if !errors.Is(err, ErrInternal) {
				t.Fatalf("poisoned eval = %v, want ErrInternal", err)
			}
			var pe *PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("poisoned eval error %T does not unwrap to *PanicError", err)
			}
			if !strings.Contains(pe.Error(), "injected: poisoned vector scan") {
				t.Errorf("PanicError = %q, want the injected panic value", pe.Error())
			}
			if len(pe.Stack) == 0 || !strings.Contains(string(pe.Stack), "panicVector") {
				t.Errorf("captured stack does not show the panicking frame:\n%s", pe.Stack)
			}
			if d := panics.Load() - panics0; d != 1 {
				t.Errorf("core.query_panics delta = %d, want 1", d)
			}
			ring := obs.Panics.List()
			if len(ring) != ring0+1 {
				t.Fatalf("panic ring grew by %d, want 1", len(ring)-ring0)
			}
			if rec := ring[0]; !strings.Contains(rec.Value, "injected: poisoned vector scan") || rec.Stack == "" {
				t.Errorf("newest panic record = %+v, want injected value with stack", rec)
			}
		})
	}
}

// TestParallelForWorkerPanicBecomesError pins the worker-side conversion
// directly: a panic inside a fanned-out task surfaces as a *PanicError
// from parallelFor, not a process crash.
func TestParallelForWorkerPanicBecomesError(t *testing.T) {
	err := parallelFor(context.Background(), 4, 16, func(i int) error {
		if i == 7 {
			panic("worker boom")
		}
		return nil
	})
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("parallelFor = %v, want ErrInternal", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("parallelFor error %T is not a *PanicError", err)
	}
	if pe.Value != "worker boom" {
		t.Errorf("PanicError.Value = %v, want worker boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Error("worker PanicError has no stack")
	}
}
