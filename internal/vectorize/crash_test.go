package vectorize

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"vxml/internal/storage"
	"vxml/internal/vector"
)

// Crash-safety: every prefix of the write sequence of Create and Append
// must leave a repository that either opens fully consistent or fails
// with a clean, typed error — never a panic, never silent partial data.
//
// The harness: FaultFS cuts the write stream after N operations (the
// moment the machine "died"), MemFS.Crash then discards everything not
// yet fsynced (what a real power cut does to the page cache), and the
// test reopens and checks. N sweeps the entire write sequence.

const crashDoc = `<bib><book><title>A</title><author>X</author></book>` +
	`<book><title>B</title><author>Y</author></book></bib>`
const crashFrag = `<bib><book><title>C</title><author>Z</author></book></bib>`

const crashPool = 8

// xmlOf reconstructs the repository at dir as a string.
func xmlOf(t *testing.T, dir string, fsys storage.FS) string {
	t.Helper()
	repo, err := Open(dir, Options{PoolPages: crashPool, FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	var buf bytes.Buffer
	if err := repo.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCreateCrashAtEveryWrite(t *testing.T) {
	// Reference: the document a fault-free Create stores.
	refFS := storage.NewMemFS()
	refRepo, err := Create(strings.NewReader(crashDoc), "repo", Options{PoolPages: crashPool, FS: refFS})
	if err != nil {
		t.Fatal(err)
	}
	refRepo.Close()
	want := xmlOf(t, "repo", refFS)

	// Count the full write sequence.
	countFS := storage.NewFaultFS(storage.NewMemFS())
	r, err := Create(strings.NewReader(crashDoc), "repo", Options{PoolPages: crashPool, FS: countFS})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	total := countFS.Writes()
	if total < 5 {
		t.Fatalf("implausible write count %d", total)
	}

	for n := int64(0); n <= total; n++ {
		mem := storage.NewMemFS()
		ff := storage.NewFaultFS(mem)
		ff.CrashAfterWrites(n)
		repo, err := Create(strings.NewReader(crashDoc), "repo", Options{PoolPages: crashPool, FS: ff})
		if err == nil {
			repo.Close()
		}
		// Machine reset: unsynced state evaporates, the budget is lifted.
		mem.Crash()
		ff.CrashAfterWrites(-1)

		reopened, openErr := Open("repo", Options{PoolPages: crashPool, FS: ff})
		switch {
		case openErr == nil:
			// The build committed: it must be the complete repository.
			var buf bytes.Buffer
			if err := reopened.WriteXML(&buf); err != nil {
				t.Fatalf("crash@%d: reopened repo does not reconstruct: %v", n, err)
			}
			reopened.Close()
			if buf.String() != want {
				t.Fatalf("crash@%d: reconstructed XML differs from the committed document", n)
			}
			if _, err := Fsck("repo", Options{PoolPages: crashPool, FS: ff}); err != nil {
				t.Fatalf("crash@%d: fsck after committed create: %v", n, err)
			}
		case errors.Is(openErr, storage.ErrInjected):
			t.Fatalf("crash@%d: injected fault leaked through recovery: %v", n, openErr)
		default:
			// The build never committed: Open explains, and a retried Create
			// (which clears the stale .building directory) must succeed.
			repo2, err := Create(strings.NewReader(crashDoc), "repo", Options{PoolPages: crashPool, FS: ff})
			if err != nil {
				t.Fatalf("crash@%d: Create after crash: %v (open error was: %v)", n, err, openErr)
			}
			repo2.Close()
			if got := xmlOf(t, "repo", ff); got != want {
				t.Fatalf("crash@%d: re-created repo differs", n)
			}
		}
	}
}

// buildCrashRepo creates crashDoc's repository on a fresh in-memory
// filesystem and commits the first before appends of crashFrag.
func buildCrashRepo(t *testing.T, before int) (*storage.FaultFS, *storage.MemFS) {
	t.Helper()
	mem := storage.NewMemFS()
	ff := storage.NewFaultFS(mem)
	repo, err := Create(strings.NewReader(crashDoc), "repo", Options{PoolPages: crashPool, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < before; i++ {
		if err := repo.Append(strings.NewReader(crashFrag)); err != nil {
			t.Fatal(err)
		}
	}
	repo.Close()
	return ff, mem
}

// directoryAhead reports whether the directory on disk holds more book
// titles than the reopened repository: a commit the skeleton never saw.
func directoryAhead(t *testing.T, fsys storage.FS, repo *Repository) bool {
	t.Helper()
	body, err := storage.ReadFileChecksummed(fsys, "repo/"+directoryFile)
	if err != nil {
		t.Fatal(err)
	}
	store, err := storage.OpenStoreFS(fsys, "repo", crashPool)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	set, err := vector.OpenDiskSet(store, vectorStem, body)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, _ := set.Count("/bib/book/title")
	now, _ := repo.Vectors.(*vector.DiskSet).Count("/bib/book/title")
	return onDisk > now
}

// crashAppend opens the repository, appends frag with the write stream cut
// after n writes (n < 0: never), resets the machine and returns the
// reopened repository with the append's error.
func crashAppend(t *testing.T, ff *storage.FaultFS, mem *storage.MemFS, frag string, n int64) (*Repository, error) {
	t.Helper()
	repo, err := Open("repo", Options{PoolPages: crashPool, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	ff.CrashAfterWrites(n)
	appendErr := repo.Append(strings.NewReader(frag))
	// Machine reset mid- or post-append. The pre-crash Repository (and its
	// page pool) is abandoned, like the process it lived in.
	mem.Crash()
	ff.CrashAfterWrites(-1)
	reopened, err := Open("repo", Options{PoolPages: crashPool, FS: ff})
	if err != nil {
		t.Fatalf("crash@%d (append err: %v): repository lost: %v", n, appendErr, err)
	}
	return reopened, appendErr
}

// appendWrites counts the writes of appending frag to the repository.
func appendWrites(t *testing.T, ff *storage.FaultFS, frag string) int64 {
	t.Helper()
	repo, err := Open("repo", Options{PoolPages: crashPool, FS: ff})
	if err != nil {
		t.Fatal(err)
	}
	ff.CrashAfterWrites(-1) // reset counter
	if err := repo.Append(strings.NewReader(frag)); err != nil {
		t.Fatal(err)
	}
	repo.Close()
	total := ff.Writes()
	if total < 5 {
		t.Fatalf("implausible append write count %d", total)
	}
	return total
}

// TestAppendCrashAtEveryWrite sweeps a crash over every write of a first
// append — which moves the packed tails of the vectors it extends to pages
// of their own — and of a second one, which grows those pages in place.
// Whatever the crash point, the repository reopens as the document before
// or after the append, and fsck passes; some crash points leave the vector
// directory committed ahead of the skeleton, which Open cuts back.
func TestAppendCrashAtEveryWrite(t *testing.T) {
	rolledBack := 0
	for before := 0; before < 2; before++ {
		// References: document before and after a fault-free append.
		refFS, _ := buildCrashRepo(t, before)
		wantOld := xmlOf(t, "repo", refFS)
		refRepo, err := Open("repo", Options{PoolPages: crashPool, FS: refFS})
		if err != nil {
			t.Fatal(err)
		}
		if err := refRepo.Append(strings.NewReader(crashFrag)); err != nil {
			t.Fatal(err)
		}
		refRepo.Close()
		wantNew := xmlOf(t, "repo", refFS)
		if wantNew == wantOld {
			t.Fatal("append reference did not change the document")
		}

		countFS, _ := buildCrashRepo(t, before)
		total := appendWrites(t, countFS, crashFrag)
		for n := int64(0); n <= total; n++ {
			ff, mem := buildCrashRepo(t, before)
			reopened, appendErr := crashAppend(t, ff, mem, crashFrag, n)
			var buf bytes.Buffer
			if err := reopened.WriteXML(&buf); err != nil {
				t.Fatalf("append %d crash@%d: reconstruct after crash: %v", before+1, n, err)
			}
			if directoryAhead(t, ff, reopened) {
				rolledBack++
			}
			reopened.Close()
			got := buf.String()
			if got != wantOld && got != wantNew {
				t.Fatalf("append %d crash@%d: document is neither pre- nor post-append state", before+1, n)
			}
			if appendErr == nil && got != wantNew {
				t.Fatalf("append %d crash@%d: append reported success but document rolled back", before+1, n)
			}
			if _, err := Fsck("repo", Options{PoolPages: crashPool, FS: ff}); err != nil {
				t.Fatalf("append %d crash@%d: fsck after crash recovery: %v", before+1, n, err)
			}
		}
	}
	if rolledBack == 0 {
		t.Error("no crash point left the directory ahead of the skeleton: the rollback path went untested")
	}
}

// TestAppendCrashAfterRolledBackAppend: an append that crashed between its
// directory and skeleton commits leaves orphan records on a vector's own
// tail page, past the count Open cuts it back to. The next append writes
// over those orphans, with values of another length; a crash at any of its
// writes must still leave a repository that opens as the document before
// or after it.
func TestAppendCrashAfterRolledBackAppend(t *testing.T) {
	const frag = `<bib><book><title>CCCC</title><author>ZZZZ</author></book></bib>`
	// One committed append first, so the titles have a page of their own.
	refFS, refMem := buildCrashRepo(t, 1)
	wantOld := xmlOf(t, "repo", refFS)
	ref, _ := crashAppend(t, refFS, refMem, frag, -1)
	ref.Close()
	wantNew := xmlOf(t, "repo", refFS)

	countFS, _ := buildCrashRepo(t, 1)
	total1 := appendWrites(t, countFS, crashFrag)
	rolledBack := 0
	for n1 := int64(0); n1 <= total1; n1++ {
		// crashFirst leaves the first append crashed after n1 writes.
		crashFirst := func() (*storage.FaultFS, *storage.MemFS, *Repository) {
			ff, mem := buildCrashRepo(t, 1)
			repo, _ := crashAppend(t, ff, mem, crashFrag, n1)
			return ff, mem, repo
		}
		ff, _, repo := crashFirst()
		ahead := directoryAhead(t, ff, repo)
		repo.Close()
		if !ahead {
			continue
		}
		rolledBack++
		total2 := appendWrites(t, ff, frag)
		for n2 := int64(0); n2 <= total2; n2++ {
			ff, mem, repo := crashFirst()
			repo.Close()
			reopened, appendErr := crashAppend(t, ff, mem, frag, n2)
			var buf bytes.Buffer
			if err := reopened.WriteXML(&buf); err != nil {
				t.Fatalf("first crash@%d, second crash@%d: reconstruct: %v", n1, n2, err)
			}
			reopened.Close()
			if got := buf.String(); got != wantOld && got != wantNew || appendErr == nil && got != wantNew {
				t.Fatalf("first crash@%d, second crash@%d (append err: %v): document is\n%s\nwant\n%s", n1, n2, appendErr, got, wantNew)
			}
			if _, err := Fsck("repo", Options{PoolPages: crashPool, FS: ff}); err != nil {
				t.Fatalf("first crash@%d, second crash@%d: fsck: %v", n1, n2, err)
			}
		}
	}
	if rolledBack == 0 {
		t.Error("no crash point of the first append left the directory ahead of the skeleton")
	}
}
