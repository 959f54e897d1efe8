package vector

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vxml/internal/storage"
)

// scanAll reads every value of v as strings.
func scanAll(t *testing.T, v Vector) []string {
	t.Helper()
	out, err := All(v)
	if err != nil {
		t.Fatalf("scan all: %v", err)
	}
	return out
}

// appendSession appends vals to vector name of set and commits them.
func appendSession(t *testing.T, set *DiskSet, name string, vals ...string) {
	t.Helper()
	w, err := set.AppendWriter(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		if err := w.AppendString(v); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := set.Save(); err != nil {
		t.Fatal(err)
	}
}

// read returns every value of vector name of set.
func read(t *testing.T, set *DiskSet, name string) []string {
	t.Helper()
	v, err := set.Vector(name)
	if err != nil {
		t.Fatal(err)
	}
	return scanAll(t, v)
}

// TestAppendResumeExactlyFullPage resumes a writer onto an own tail page
// with zero free bytes: the first new value must go to a fresh page, and
// positional reads must stay correct across the boundary.
func TestAppendResumeExactlyFullPage(t *testing.T) {
	store, _ := newPool(t, 64)
	// 81 values of 99 bytes (1-byte length prefix each) plus one of 87
	// bytes fill the 8188-byte page to the last byte.
	var want []string
	for i := 0; i < 81; i++ {
		want = append(want, strings.Repeat("x", 99))
	}
	want = append(want, strings.Repeat("y", 87))
	writeVector(t, store, "v", false, want)
	set := reopen(t, store, "v")
	// Packed alone, the vector fills its page exactly; a page no other
	// vector shares is its own, so an empty append leaves it in place.
	appendSession(t, set, "/v")
	ext, _ := set.Extents("/v")
	if len(ext) != 1 || ext[0].Off != 0 || ext[0].Len != pageData || set.dir.shared[ext[0].Page] {
		t.Fatalf("extents after the move = %+v, want one exactly full own page; adjust the test values", ext)
	}

	appendSession(t, set, "/v", "resumed")
	want = append(want, "resumed")
	got := read(t, set, "/v")
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("after resuming on a full page: %d values, want %d", len(got), len(want))
	}
	ext2, _ := set.Extents("/v")
	if len(ext2) != 2 || ext2[0] != ext[0] || ext2[1].Page == ext[0].Page {
		t.Errorf("extents = %+v, want the full page unchanged and a new one", ext2)
	}
}

// TestAppendResumeZeroValues re-opens a vector for append, writes nothing,
// and commits, twice: the values and their byte total stay as they were,
// and the second session leaves the extents as the first left them.
func TestAppendResumeZeroValues(t *testing.T) {
	store, _ := newPool(t, 64)
	vals := []string{"one", "two", "three"}
	writeVector(t, store, "v", false, vals)
	set := reopen(t, store, "v")
	var prev []Extent
	for round := 0; round < 2; round++ {
		w, err := set.AppendWriter("/v")
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if w.Count() != int64(len(vals)) {
			t.Fatalf("round %d: resumed count = %d, want %d", round, w.Count(), len(vals))
		}
		if err := w.Close(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := set.Save(); err != nil {
			t.Fatal(err)
		}
		ext, _ := set.Extents("/v")
		if round == 1 && fmt.Sprint(ext) != fmt.Sprint(prev) {
			t.Errorf("second session changed extents %v to %v", prev, ext)
		}
		prev = ext
	}
	v, err := reopen(t, store, "v").Vector("/v")
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, v); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Errorf("values = %v, want %v", got, vals)
	}
	if b := v.(*Paged).ValueBytes(); b != 11 {
		t.Errorf("ValueBytes = %d, want 11", b)
	}
}

// TestAppendResumeStaleMeta reopens a set whose segment disagrees with the
// committed directory in either direction — holding more than it (an
// append that wrote pages but crashed before its directory commit) or less
// (the directory committed, the skeleton did not, so Rollback cuts it
// back). Both recover the exact values and byte total; a committed count
// beyond what the set holds is refused.
func TestAppendResumeStaleMeta(t *testing.T) {
	store, _ := newPool(t, 64)
	var vals []string
	var nbytes int64
	for i := 0; i < 5000; i++ { // several pages
		v := fmt.Sprintf("value-%04d", i)
		vals = append(vals, v)
		nbytes += int64(len(v))
	}
	writeVector(t, store, "v", false, vals)

	// Pages and bytes past the committed directory: an append that died
	// before Save. The committed values read back exactly; the next append
	// cuts the orphan pages and writes over the orphan bytes.
	set := reopen(t, store, "v")
	pages := set.Pages()
	w, err := set.AppendWriter("/v")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3000; i++ {
		if err := w.AppendString("orphan"); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := store.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	set = reopen(t, store, "v")
	if set.Segment().NumPages() <= pages {
		t.Fatalf("the dead append left no orphan pages (%d pages)", set.Segment().NumPages())
	}
	if got := read(t, set, "/v"); len(got) != len(vals) || got[len(got)-1] != vals[len(vals)-1] {
		t.Fatalf("with orphans: %d values, last %q", len(got), got[len(got)-1])
	}
	appendSession(t, set, "/v", "after-recovery")
	vals = append(vals, "after-recovery")
	nbytes += int64(len("after-recovery"))
	if n := set.Segment().NumPages(); n != pages {
		// The orphans are cut, and the tail page, which holds no other
		// vector, grows in place.
		t.Errorf("segment has %d pages after the recovering append, want %d", n, pages)
	}
	set = reopen(t, store, "v")
	if got := read(t, set, "/v"); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Fatalf("after recovery: %d values, last %q", len(got), got[len(got)-1])
	}

	// The directory ahead of the committed count: Rollback recounts the
	// byte total and cuts the extent holding the new end.
	appendSession(t, set, "/v", "ahead-1", "ahead-2", "ahead-3")
	if err := set.Rollback("/v", int64(len(vals))); err != nil {
		t.Fatal(err)
	}
	v, _ := set.Vector("/v")
	if got := scanAll(t, v); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Fatalf("after rollback: %d values, last %q", len(got), got[len(got)-1])
	}
	if b := v.(*Paged).ValueBytes(); b != nbytes {
		t.Errorf("recounted bytes = %d, want %d", b, nbytes)
	}
	appendSession(t, set, "/v", "after-rollback")
	vals = append(vals, "after-rollback")
	if got := read(t, reopen(t, store, "v"), "/v"); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Fatalf("after rollback and append: %d values, last %q", len(got), got[len(got)-1])
	}

	// A committed count beyond what the set holds is lost data.
	if err := set.Rollback("/v", int64(len(vals))+1000); err == nil {
		t.Error("rollback past the vector's end succeeded")
	}
	set.dir.vecs["/v"] = entry{count: int64(len(vals)) + 1000, ext: set.dir.vecs["/v"].ext}
	if _, err := OpenDiskSet(store, "v", set.dir.encode(nil)); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("directory counting past its extents: err = %v, want ErrCorrupt", err)
	}
}

// TestAppendCompressedStaleMeta: appends never merge into a DEFLATE
// extent, so a committed count inside one is corruption — recovery needs a
// rebuild — while one on an extent boundary rolls back cleanly.
func TestAppendCompressedStaleMeta(t *testing.T) {
	store, _ := newPool(t, 64)
	var vals []string
	for i := 0; i < 5000; i++ {
		vals = append(vals, fmt.Sprintf("value-%04d", i))
	}
	writeVector(t, store, "v", true, vals)
	set := reopen(t, store, "v")
	ext, _ := set.Extents("/v")
	if ext[0].Codec != codecDeflate || ext[0].N < 2 {
		t.Fatalf("first extent %+v, want DEFLATE with several records", ext[0])
	}
	if err := set.Rollback("/v", 1); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("rollback into a DEFLATE extent: err = %v, want ErrCorrupt", err)
	}
	boundary := ext[1].First
	if err := set.Rollback("/v", boundary); err != nil {
		t.Fatalf("rollback to an extent boundary: %v", err)
	}
	if got := read(t, set, "/v"); strings.Join(got, ",") != strings.Join(vals[:boundary], ",") {
		t.Errorf("after rollback: %d values, want %d", len(got), boundary)
	}
}
