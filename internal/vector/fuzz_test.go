package vector

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"vxml/internal/storage"
)

// fuzzFile materialises a vector file inside a fresh in-memory store: page
// 0 carries the given magic followed by the given meta bytes, and each
// data argument becomes one data page. Every page gets a valid CRC
// trailer, so the fuzzer exercises the format decoders *behind* the
// checksum layer — corruption the CRC would catch never reaches them, and
// what it cannot catch (a crafted but well-summed page) must still decode
// without panicking.
func fuzzFile(t *testing.T, magic string, meta []byte, data ...[]byte) (*storage.BufferPool, *storage.File) {
	t.Helper()
	mem := storage.NewMemFS()
	store, err := storage.OpenStoreFS(mem, "repo", 16)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	path := filepath.Join("repo", "v.vec")
	raw, err := mem.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("create raw file: %v", err)
	}
	pages := append([][]byte{append([]byte(magic), meta...)}, data...)
	for i, content := range pages {
		page := make([]byte, storage.PageSize)
		copy(page[:storage.PageDataSize], content)
		binary.LittleEndian.PutUint32(page[storage.PageDataSize:], storage.Checksum(page[:storage.PageDataSize]))
		if _, err := raw.WriteAt(page, int64(i)*storage.PageSize); err != nil {
			t.Fatalf("write page %d: %v", i, err)
		}
	}
	if err := raw.Close(); err != nil {
		t.Fatalf("close raw file: %v", err)
	}
	f, err := store.Open("v.vec")
	if err != nil {
		t.Fatalf("open via store: %v", err)
	}
	return store.Pool(), f
}

// scanSome drives the decoder over a bounded prefix of v and a point read
// at each end. Errors are the expected outcome for corrupt input; panics
// (caught by the fuzz harness), unbounded work and silently wrong answers
// are bugs: a value delivered at a position other than the next one asked
// for, or a Scan that returns nil having delivered fewer values than asked
// for. The cap matters: a crafted meta page can claim 2^60 values, and the
// scan range must come from what we ask for, not from that claim.
func scanSome(t *testing.T, v Vector) {
	t.Helper()
	scan := func(start, n int64) {
		next := start
		err := v.Scan(start, n, func(pos int64, _ []byte) error {
			if pos != next {
				t.Errorf("Scan(%d, %d) delivered position %d, want %d", start, n, pos, next)
			}
			next++
			return nil
		})
		if err == nil && next != start+n {
			t.Errorf("Scan(%d, %d) returned nil after %d values", start, n, next-start)
		}
	}
	n := v.Len()
	if n <= 0 {
		return
	}
	scan(0, min(n, 1<<16))
	scan(0, 1)
	scan(n-1, 1)
}

// cursorScript drives one Cursor over v through a fixed script — forward
// from the top, on along the same page, the next page, backward, the last
// value — holding each scan to scanSome's contract and, when a one-shot
// Scan of the same range succeeds too, to the same values.
func cursorScript(t *testing.T, v Vector) {
	t.Helper()
	n := v.Len()
	if n <= 0 {
		return
	}
	c := NewCursor(v)
	defer c.Close()
	scan := func(start, cnt int64) {
		start = min(start, n-1)
		cnt = min(cnt, n-start)
		got := collect(c.Scan, start, cnt, -1)
		for i, pos := range got.pos {
			if pos != start+int64(i) {
				t.Fatalf("cursor Scan(%d, %d) delivered position %d, want %d", start, cnt, pos, start+int64(i))
			}
		}
		if got.err == nil && int64(len(got.pos)) != cnt {
			t.Fatalf("cursor Scan(%d, %d) returned nil after %d values", start, cnt, len(got.pos))
		}
		if want := collect(v.Scan, start, cnt, -1); got.err == nil && want.err == nil {
			if err := sameScan(got, want); err != nil {
				t.Fatalf("cursor Scan(%d, %d): %v", start, cnt, err)
			}
		}
	}
	scan(0, 1)
	scan(1, 2)
	scan(c.last, 2)
	scan(0, 1)
	scan(n-1, 1)
}

// nextPage returns a data page continuing data's: the same contents with
// firstIdx moved past data's records, so a well-formed page becomes a
// well-formed two-page vector.
func nextPage(data []byte) []byte {
	page := make([]byte, max(len(data), 12))
	copy(page, data)
	firstIdx, nrecs, _ := pageHeader(page)
	binary.LittleEndian.PutUint64(page[0:8], uint64(firstIdx+int64(nrecs)))
	return page
}

// FuzzPageDecode feeds arbitrary meta and data page contents (with valid
// checksums) under both magics to the one reader, to a Cursor's resume
// (over that page and over two pages, the second continuing the first),
// and to the append-resume paths of both formats. The contract under test:
// corrupt pages yield errors, never panics and never short or misplaced
// scans.
func FuzzPageDecode(f *testing.F) {
	// A well-formed plain vector: count 2, 2 value bytes; data page with
	// firstIdx 0, 2 records, 4 used bytes: ["a", "b"].
	meta := make([]byte, 16)
	binary.LittleEndian.PutUint64(meta[0:8], 2)
	binary.LittleEndian.PutUint64(meta[8:16], 2)
	data := make([]byte, 16)
	binary.LittleEndian.PutUint16(data[8:10], 2)
	binary.LittleEndian.PutUint16(data[10:12], 4)
	copy(data[12:16], []byte{1, 'a', 1, 'b'})
	f.Add(meta, data)
	// The same page with a meta page counting its continuation too: the
	// cursor script crosses into the second page.
	meta4 := make([]byte, 16)
	binary.LittleEndian.PutUint64(meta4[0:8], 4)
	f.Add(meta4, data)
	f.Add([]byte{}, []byte{})
	// Absurd counts and record lengths.
	huge := make([]byte, 16)
	binary.LittleEndian.PutUint64(huge[0:8], 1<<60)
	binary.LittleEndian.PutUint64(huge[8:16], 1<<60)
	f.Add(huge, []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// A well-formed compressed page (codec 0 = stored raw): ["a", "b"].
	f.Add(meta, craftPage(true, 0, "a", "b"))
	// A valid page whose firstIdx skips past the positions the meta page
	// claims: scans must fail, not come back short.
	gap := make([]byte, 16)
	binary.LittleEndian.PutUint64(gap[0:8], 10)
	f.Add(gap, craftPage(false, 5, "a", "b"))

	f.Fuzz(func(t *testing.T, meta []byte, data []byte) {
		for _, magic := range []string{metaMagic, compMagic} {
			pool2, file2 := fuzzFile(t, magic, meta, data, nextPage(data))
			if v, err := OpenPaged(pool2, file2); err == nil {
				cursorScript(t, v)
			}
			pool, file := fuzzFile(t, magic, meta, data)
			if v, err := OpenPaged(pool, file); err == nil {
				scanSome(t, v)
				cursorScript(t, v)
			}
			for _, resume := range []int64{0, 1, 3} {
				if w, err := OpenAppendWriter(pool, file, resume); err == nil {
					_ = w.AppendString("x")
					_ = w.Close()
				}
				if w, err := OpenAppendCompressed(pool, file, resume); err == nil {
					_ = w.AppendString("x")
					_ = w.Close()
				}
			}
		}
	})
}

// craftPage builds the contents of one data page in the given format
// holding vals at positions firstIdx onward (a compressed page stores them
// raw, codec 0).
func craftPage(compressed bool, firstIdx int64, vals ...string) []byte {
	hdr, _ := layout(compressed)
	page := make([]byte, hdr)
	for _, v := range vals {
		page = binary.AppendUvarint(page, uint64(len(v)))
		page = append(page, v...)
	}
	binary.LittleEndian.PutUint64(page[0:8], uint64(firstIdx))
	binary.LittleEndian.PutUint16(page[8:10], uint16(len(vals)))
	binary.LittleEndian.PutUint16(page[10:12], uint16(len(page)-hdr))
	return page
}

// TestScanRejectsPositionGap: data pages with valid checksums whose
// firstIdx headers skip positions must make Scan fail with ErrCorrupt,
// never return nil after delivering too few values or values at the wrong
// positions — for the seek's page and for every later one, in both
// formats.
func TestScanRejectsPositionGap(t *testing.T) {
	metaPage := make([]byte, 16)
	binary.LittleEndian.PutUint64(metaPage[0:8], 10)
	for _, fm := range formats {
		magic := meta{compressed: fm.compressed}.magic()
		for _, tc := range []struct {
			name     string
			pages    [][]byte
			start, n int64
		}{
			// The only data page claims positions 5 and 6.
			{"before first page", [][]byte{craftPage(fm.compressed, 5, "f", "g")}, 0, 2},
			{"into first page", [][]byte{craftPage(fm.compressed, 5, "f", "g")}, 3, 4},
			// Page 1 holds 0 and 1, page 2 jumps to 5.
			{"between pages", [][]byte{craftPage(fm.compressed, 0, "a", "b"), craftPage(fm.compressed, 5, "f", "g")}, 0, 4},
			// Page 1 holds 0..2, page 2 restarts at 1.
			{"overlapping pages", [][]byte{craftPage(fm.compressed, 0, "a", "b", "c"), craftPage(fm.compressed, 1, "b", "c", "d", "e")}, 0, 5},
		} {
			t.Run(fm.name+"/"+tc.name, func(t *testing.T) {
				pool, file := fuzzFile(t, magic, metaPage, tc.pages...)
				v, err := OpenPaged(pool, file)
				if err != nil {
					t.Fatal(err)
				}
				var got []int64
				err = v.Scan(tc.start, tc.n, func(pos int64, _ []byte) error {
					got = append(got, pos)
					return nil
				})
				if !errors.Is(err, storage.ErrCorrupt) {
					t.Fatalf("Scan(%d, %d) = %v after positions %v, want ErrCorrupt", tc.start, tc.n, err, got)
				}
				for i, pos := range got {
					if pos != tc.start+int64(i) {
						t.Errorf("delivered position %d at index %d before failing", pos, i)
					}
				}
			})
		}
	}
}
