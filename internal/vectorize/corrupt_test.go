package vectorize

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vxml/internal/storage"
	"vxml/internal/vector"
)

// Failure injection: a damaged repository must fail loudly with a useful
// error, never panic or return wrong data silently.

func corruptRepo(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(
		`<bib><book><title>A</title></book><book><title>B</title></book></bib>`),
		dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestOpenCorruptSkeleton(t *testing.T) {
	dir := corruptRepo(t)
	path := filepath.Join(dir, "skeleton.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Truncate mid-file.
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PoolPages: 64}); err == nil {
		t.Error("Open with truncated skeleton succeeded")
	}
	// Garbage magic.
	if err := os.WriteFile(path, []byte("GARBAGE!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PoolPages: 64}); err == nil {
		t.Error("Open with garbage skeleton succeeded")
	}
}

func TestOpenMissingCatalog(t *testing.T) {
	dir := corruptRepo(t)
	if err := os.Remove(filepath.Join(dir, directoryFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PoolPages: 64}); err == nil {
		t.Error("Open without the vector directory succeeded")
	}
}

func TestOpenCorruptCatalog(t *testing.T) {
	dir := corruptRepo(t)
	if err := os.WriteFile(filepath.Join(dir, directoryFile), []byte("{not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{PoolPages: 64}); !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("Open with a corrupt vector directory = %v, want ErrCorrupt", err)
	}
}

// TestOpenFormat2Repository: a repository of the previous format (one
// file per vector) is refused with the same advice as format 1.
func TestOpenFormat2Repository(t *testing.T) {
	dir := corruptRepo(t)
	data := []byte(`{"format": 2, "files": {}}`)
	if err := storage.WriteFileAtomic(storage.DefaultFS, filepath.Join(dir, ManifestName), data); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{PoolPages: 64})
	if err == nil || !strings.Contains(err.Error(), "format 2") || !strings.Contains(err.Error(), "rebuild from the source XML") {
		t.Errorf("Open of a format-2 repository = %v, want the rebuild advice", err)
	}
}

func TestVectorFileMissing(t *testing.T) {
	dir := corruptRepo(t)
	if err := os.Remove(filepath.Join(dir, segmentFile)); err != nil {
		t.Fatal(err)
	}
	// The manifest lists the segment, so Open itself notices.
	if _, err := Open(dir, Options{PoolPages: 64}); err == nil {
		t.Error("Open after deleting the vector segment succeeded")
	}
}

// manyValues is a document whose one vector /d/v fills several pages.
func manyValues(t *testing.T, n int) string {
	t.Helper()
	var doc strings.Builder
	doc.WriteString("<d>")
	for i := 0; i < n; i++ {
		doc.WriteString("<v>some value text here</v>")
	}
	doc.WriteString("</d>")
	dir := t.TempDir()
	repo, err := Create(strings.NewReader(doc.String()), dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	repo.Close()
	return dir
}

// extentsOf returns the directory's extents of the named vector of the
// repository at dir.
func extentsOf(t *testing.T, dir, name string) []vector.Extent {
	t.Helper()
	repo, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	ext, ok := repo.Vectors.(*vector.DiskSet).Extents(name)
	if !ok {
		t.Fatalf("no vector %q", name)
	}
	return ext
}

// patchPage writes b at byte off of segment page page and re-stamps the
// page's CRC, so only the format's own checks can notice.
func patchPage(t *testing.T, dir string, page int64, off int, b []byte) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, storage.PageSize)
	if _, err := f.ReadAt(buf, page*storage.PageSize); err != nil {
		t.Fatal(err)
	}
	copy(buf[off:], b)
	binary.LittleEndian.PutUint32(buf[storage.PageDataSize:], storage.Checksum(buf[:storage.PageDataSize]))
	if _, err := f.WriteAt(buf, page*storage.PageSize); err != nil {
		t.Fatal(err)
	}
}

func TestVectorRecordLengthCorrupt(t *testing.T) {
	dir := manyValues(t, 2000)
	// Smash the length prefix of the first record of the vector's first
	// extent, under a valid page CRC: a huge uvarint that points far past
	// the extent. Scan must report a corrupt extent, not slice out of
	// bounds and panic.
	x := extentsOf(t, dir, "/d/v")[0]
	patchPage(t, dir, x.Page, x.Off, []byte{0xff, 0xff, 0xff, 0xff, 0x7f})
	repo2, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	v, err := repo2.Vectors.Vector("/d/v")
	if err != nil {
		t.Fatal(err)
	}
	err = v.Scan(0, v.Len(), func(int64, []byte) error { return nil })
	if err == nil {
		t.Error("scan over corrupt record length succeeded")
	} else if !errors.Is(err, storage.ErrCorrupt) || !strings.Contains(err.Error(), `vector "/d/v"`) {
		t.Errorf("scan error %q does not wrap ErrCorrupt naming the vector", err)
	}
}

func TestVectorFileTruncated(t *testing.T) {
	dir := manyValues(t, 5000)
	path := filepath.Join(dir, segmentFile)
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the segment to a page boundary shorter than the data. The
	// manifest records the committed page count, so Open itself must
	// refuse, with a typed error naming the file.
	if err := os.Truncate(path, st.Size()/2/8192*8192); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{PoolPages: 64})
	if err == nil {
		t.Fatal("Open of repository with truncated vector segment succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %q does not wrap storage.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), segmentFile) {
		t.Errorf("error %q does not name the damaged file", err)
	}
}

// TestVectorBitFlip flips one byte in the middle of a vector page: the
// page CRC must catch it during a scan, with a typed error naming the
// file, and the process must not panic.
func TestVectorBitFlip(t *testing.T) {
	dir := manyValues(t, 2000)
	x := extentsOf(t, dir, "/d/v")[1]
	f, err := os.OpenFile(filepath.Join(dir, segmentFile), os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// One flipped byte in the middle of the vector's second page. Size and
	// structure stay plausible; only the CRC can notice.
	off := x.Page*storage.PageSize + 4000
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()
	repo2, err := Open(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err) // Open reads no segment page
	}
	defer repo2.Close()
	v, err := repo2.Vectors.Vector("/d/v")
	if err != nil {
		t.Fatal(err)
	}
	err = v.Scan(0, v.Len(), func(int64, []byte) error { return nil })
	if err == nil {
		t.Fatal("scan over bit-flipped page succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %q does not wrap storage.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), segmentFile) {
		t.Errorf("error %q does not name the damaged file", err)
	}
	// Fsck must find the same damage even without a scanning query.
	if _, err := Fsck(dir, Options{PoolPages: 64}); err == nil {
		t.Error("Fsck of bit-flipped repository succeeded")
	} else if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("Fsck error %q does not wrap storage.ErrCorrupt", err)
	}
}

// TestSkeletonBitFlip flips one byte inside the skeleton file: the file
// footer must catch it at Open, wrapping ErrCorrupt and naming the file.
func TestSkeletonBitFlip(t *testing.T) {
	dir := corruptRepo(t)
	path := filepath.Join(dir, "skeleton.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{PoolPages: 64})
	if err == nil {
		t.Fatal("Open with bit-flipped skeleton succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %q does not wrap storage.ErrCorrupt", err)
	}
	if !strings.Contains(err.Error(), "skeleton.bin") {
		t.Errorf("error %q does not name skeleton.bin", err)
	}
}

// TestSkeletonTruncated cuts the skeleton file: ErrCorrupt, file named,
// no panic.
func TestSkeletonTruncated(t *testing.T) {
	dir := corruptRepo(t)
	path := filepath.Join(dir, "skeleton.bin")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, keep := range []int{len(data) / 2, 7, 0} {
		if err := os.WriteFile(path, data[:keep], 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(dir, Options{PoolPages: 64})
		if err == nil {
			t.Fatalf("Open with skeleton truncated to %d bytes succeeded", keep)
		}
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("truncation to %d: error %q does not wrap storage.ErrCorrupt", keep, err)
		}
		if !strings.Contains(err.Error(), "skeleton.bin") {
			t.Errorf("truncation to %d: error %q does not name skeleton.bin", keep, err)
		}
	}
}

// TestManifestCorrupt damages the manifest itself: Open must fail with a
// typed error, not guess.
func TestManifestCorrupt(t *testing.T) {
	dir := corruptRepo(t)
	path := filepath.Join(dir, ManifestName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x80
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{PoolPages: 64})
	if err == nil {
		t.Fatal("Open with corrupt manifest succeeded")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Errorf("error %q does not wrap storage.ErrCorrupt", err)
	}
}

// TestOpenMissingManifest removes the manifest: Open must explain what is
// wrong rather than proceeding without integrity metadata.
func TestOpenMissingManifest(t *testing.T) {
	dir := corruptRepo(t)
	if err := os.Remove(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{PoolPages: 64})
	if err == nil {
		t.Fatal("Open without manifest succeeded")
	}
	if !strings.Contains(err.Error(), ManifestName) {
		t.Errorf("error %q does not mention the manifest", err)
	}
}

// TestFsckClean verifies Fsck accepts a freshly built repository and
// reports the scan totals.
func TestFsckClean(t *testing.T) {
	dir := corruptRepo(t)
	rep, err := Fsck(dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatalf("Fsck of clean repository: %v", err)
	}
	if len(rep.Warnings) != 0 {
		t.Errorf("Fsck warnings on clean repository: %v", rep.Warnings)
	}
	if rep.Vectors != 1 || rep.Values != 2 {
		t.Errorf("Fsck scanned %d vectors / %d values, want 1 / 2", rep.Vectors, rep.Values)
	}
}
