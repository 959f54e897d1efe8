package vector

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vxml/internal/storage"
)

// fuzzSet materialises a segment whose pages have the given contents, each
// with a valid CRC trailer, described by d, in a fresh in-memory store. The
// fuzzers thereby exercise the decoders *behind* the checksum layer:
// corruption the CRC would catch never reaches them, and what it cannot
// catch (a crafted but well-summed page) must still decode without
// panicking.
func fuzzSet(t *testing.T, d *directory, pages ...[]byte) *DiskSet {
	t.Helper()
	mem := storage.NewMemFS()
	store, err := storage.OpenStoreFS(mem, "repo", 16)
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	t.Cleanup(func() { store.Close() })
	raw, err := mem.OpenFile(filepath.Join("repo", "v.seg"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatalf("create raw file: %v", err)
	}
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
	d.pages = int64(len(pages))
	set, err := OpenDiskSet(store, "v", d.encode(nil))
	if err != nil {
		t.Fatalf("valid directory rejected: %v", err)
	}
	return set
}

// scanSome drives the decoder over a bounded prefix of v and a point read
// at each end. Errors are the expected outcome for corrupt input; panics
// (caught by the fuzz harness), unbounded work and silently wrong answers
// are bugs: a value delivered at a position other than the next one asked
// for, or a Scan that returns nil having delivered fewer values than asked
// for.
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
// from the top, on along the same extent, the next extent, backward, the
// last value — holding each scan to scanSome's contract and, when a
// one-shot Scan of the same range succeeds too, to the same values.
func cursorScript(t *testing.T, v *Paged) {
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
	scan(v.ext[0].end(), 2)
	scan(0, 1)
	scan(n-1, 1)
}

// records encodes vals as an extent stores them.
func records(deflate bool, vals ...string) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, uint64(len(v)))
		b = append(b, v...)
	}
	if !deflate {
		return b
	}
	var out bytes.Buffer
	fw, _ := flate.NewWriter(&out, flate.BestSpeed)
	fw.Write(b)
	fw.Close()
	return out.Bytes()
}

// fuzzExtent is an extent of n records in the first l bytes past off of a
// page, clamped to what a valid directory accepts.
func fuzzExtent(page int64, off, l int, n uint16, deflate bool) Extent {
	l = max(1, min(l, pageData-off))
	x := Extent{Page: page, Off: off, Len: l, N: 1 + int(n)%pageData}
	if deflate {
		x.Codec = codecDeflate
	} else {
		x.N = 1 + int(n)%l
	}
	return x
}

// FuzzPageDecode feeds arbitrary contents of two segment pages (with valid
// checksums), under a valid directory the fuzzer also shapes, to the one
// reader and to a Cursor's script: vector "/a" has an extent at the start
// of page 0 and one filling page 1, vector "/b" an extent after /a's on
// page 0, each raw or DEFLATE. An append to each follows — /a's extends
// its own page 1 in place, /b's moves its tail off the shared page 0. The
// contract under test: corrupt pages yield errors, never panics and never
// short or misplaced scans.
func FuzzPageDecode(f *testing.F) {
	raw0 := append(records(false, "a", "b"), records(false, "x")...)
	f.Add(raw0, records(false, "c", "d"), uint16(3), uint16(1), uint16(1), uint16(0), uint16(1), uint8(0))
	f.Add(raw0, records(true, "c", "d"), uint16(3), uint16(1), uint16(1), uint16(0), uint16(1), uint8(2))
	f.Add([]byte{}, []byte{}, uint16(0), uint16(0), uint16(0), uint16(0), uint16(0), uint8(0))
	// Absurd record lengths.
	f.Add(bytes.Repeat([]byte{0xff}, 13), []byte{0xff, 0xff, 0x7f}, uint16(12), uint16(3), uint16(5), uint16(2), uint16(9), uint8(0))
	// Record counts the bytes do not hold, and a DEFLATE extent of garbage.
	f.Add(raw0, []byte("not deflate"), uint16(3), uint16(2), uint16(1), uint16(1), uint16(3), uint8(7))
	f.Add(append(records(true, "a", "b"), records(true, "x")...), records(true, "c"), uint16(10), uint16(1), uint16(8), uint16(0), uint16(0), uint8(7))

	f.Fuzz(func(t *testing.T, page0, page1 []byte, len0, n0, lenB, nB, n1 uint16, codecs uint8) {
		a0 := fuzzExtent(0, 0, 1+int(len0)%(pageData-1), n0, codecs&1 != 0)
		a1 := fuzzExtent(1, 0, len(page1), n1, codecs&2 != 0)
		a1.First = int64(a0.N)
		b := fuzzExtent(0, a0.Len, 1+int(lenB), nB, codecs&4 != 0)
		d := &directory{vecs: map[string]entry{
			"/a": {count: a1.end(), ext: []Extent{a0, a1}},
			"/b": {count: int64(b.N), ext: []Extent{b}},
		}}
		set := fuzzSet(t, d, page0, page1)
		for _, name := range []string{"/a", "/b"} {
			v, err := set.Vector(name)
			if err != nil {
				t.Fatal(err)
			}
			scanSome(t, v)
			cursorScript(t, v.(*Paged))
			w, err := set.AppendWriter(name)
			if err != nil {
				continue
			}
			_ = w.AppendString("x")
			if w.Close() != nil || set.Save() != nil {
				continue
			}
			v, err = set.Vector(name)
			if err != nil {
				t.Fatal(err)
			}
			if n := v.Len(); n > 0 {
				if last, err := Get(v, n-1); err == nil && last != "x" {
					t.Fatalf("%s: appended value reads back as %q", name, last)
				}
			}
		}
	})
}

// checkDirectory independently re-checks the invariants every accepted
// directory must satisfy.
func checkDirectory(d *directory) error {
	type span struct{ page, off, end int64 }
	var spans []span
	for name, e := range d.vecs {
		var pos int64
		for i, x := range e.ext {
			switch {
			case x.Page < 0 || x.Page >= d.pages || x.Off < 0 || x.Len <= 0 || x.Off+x.Len > pageData:
				return fmt.Errorf("%s extent %d outside the data area: %+v", name, i, x)
			case x.First != pos || x.N <= 0:
				return fmt.Errorf("%s extent %d does not chain at %d: %+v", name, i, pos, x)
			case x.Codec != codecRaw && x.Codec != codecDeflate:
				return fmt.Errorf("%s extent %d has codec %d", name, i, x.Codec)
			}
			pos = x.end()
			spans = append(spans, span{x.Page, int64(x.Off), int64(x.Off + x.Len)})
		}
		if pos != e.count {
			return fmt.Errorf("%s extents hold %d records, count %d", name, pos, e.count)
		}
	}
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			a, b := spans[i], spans[j]
			if a.page == b.page && a.off < b.end && b.off < a.end {
				return fmt.Errorf("extents overlap on page %d", a.page)
			}
		}
	}
	return nil
}

// FuzzDirectoryDecode feeds hostile bytes to the directory decoder: it
// never panics, a directory it accepts satisfies the extent invariants,
// and re-encoding an accepted one decodes to the same bytes again.
func FuzzDirectoryDecode(f *testing.F) {
	valid := &directory{pages: 2, compress: true, vecs: map[string]entry{
		"/bib/book/title":  {count: 5, bytes: 20, ext: []Extent{{Page: 0, Off: 0, Len: 12, N: 3}, {Page: 1, Off: 0, Len: 9, First: 3, N: 2, Codec: codecDeflate}}},
		"/bib/book/author": {count: 1, bytes: 2, ext: []Extent{{Page: 0, Off: 12, Len: 3, N: 1}}},
		"/bib/empty":       {},
	}}
	f.Add(valid.encode(nil))
	f.Add([]byte(dirMagic))
	f.Add([]byte(dirMagic + "\x00\x00\x00"))
	overlap := *valid
	overlap.vecs = map[string]entry{
		"/a": {count: 2, ext: []Extent{{Page: 0, Off: 0, Len: 10, N: 2}}},
		"/b": {count: 1, ext: []Extent{{Page: 0, Off: 5, Len: 10, N: 1}}},
	}
	f.Add(overlap.encode(nil))
	gap := *valid
	gap.vecs = map[string]entry{"/a": {count: 4, ext: []Extent{{Page: 0, Len: 2, N: 2}, {Page: 1, Len: 2, First: 2 + 1, N: 1}}}}
	f.Add(gap.encode(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := decodeDirectory(data)
		if err != nil {
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Fatalf("rejection %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if err := checkDirectory(d); err != nil {
			t.Fatalf("accepted directory breaks an invariant: %v", err)
		}
		again := d.encode(nil)
		d2, err := decodeDirectory(again)
		if err != nil {
			t.Fatalf("re-encoded directory rejected: %v", err)
		}
		if !bytes.Equal(d2.encode(nil), again) {
			t.Fatal("directory does not round-trip")
		}
	})
}

// TestScanRejectsPositionGap: extents whose positions skip or repeat are
// corruption — the directory decoder refuses them, and a reader built on
// them anyway fails its scans with ErrCorrupt instead of returning nil
// after delivering too few values or values at the wrong positions, for
// the seek's extent and for every later one, with either codec.
func TestScanRejectsPositionGap(t *testing.T) {
	for _, fm := range formats {
		for _, tc := range []struct {
			name     string
			firsts   []int64 // one extent per page
			vals     [][]string
			start, n int64
		}{
			// The only extent claims positions 5 and 6.
			{"before first page", []int64{5}, [][]string{{"f", "g"}}, 0, 2},
			{"into first page", []int64{5}, [][]string{{"f", "g"}}, 3, 4},
			// Page 0 holds 0 and 1, page 1 jumps to 5.
			{"between pages", []int64{0, 5}, [][]string{{"a", "b"}, {"f", "g"}}, 0, 4},
			// Page 0 holds 0..2, page 1 restarts at 1.
			{"overlapping pages", []int64{0, 1}, [][]string{{"a", "b", "c"}, {"b", "c", "d", "e"}}, 0, 5},
		} {
			t.Run(fm.name+"/"+tc.name, func(t *testing.T) {
				var ext []Extent
				var pages [][]byte
				for i, vals := range tc.vals {
					page := records(fm.compressed, vals...)
					x := Extent{Page: int64(i), Len: len(page), First: tc.firsts[i], N: len(vals)}
					if fm.compressed {
						x.Codec = codecDeflate
					}
					ext, pages = append(ext, x), append(pages, page)
				}
				// The count agrees with the last extent, so only the
				// positions' chaining is wrong.
				count := ext[len(ext)-1].end()
				bad := &directory{pages: int64(len(pages)), vecs: map[string]entry{"/v": {count: count, ext: ext}}}
				if _, err := decodeDirectory(bad.encode(nil)); !errors.Is(err, storage.ErrCorrupt) {
					t.Errorf("decodeDirectory = %v, want ErrCorrupt", err)
				}
				set := fuzzSet(t, &directory{vecs: map[string]entry{}}, pages...)
				v := &Paged{pool: set.store.Pool(), seg: set.seg, name: "/v", ext: ext, count: count}
				var got []int64
				err := v.Scan(tc.start, tc.n, func(pos int64, _ []byte) error {
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

// TestScanRejectsInexactExtent: an extent whose bytes hold more records
// than its count, or end inside a record, fails before delivering a single
// value of it, with either codec.
func TestScanRejectsInexactExtent(t *testing.T) {
	for _, fm := range formats {
		for _, tc := range []struct {
			name  string
			bytes []byte
			n     int
		}{
			{"more records than counted", records(false, "a", "b", "c"), 2},
			{"record cut short", records(false, "a", "bcd")[:4], 2},
		} {
			t.Run(fm.name+"/"+tc.name, func(t *testing.T) {
				page := tc.bytes
				codec := byte(codecRaw)
				if fm.compressed {
					var out bytes.Buffer
					fw, _ := flate.NewWriter(&out, flate.BestSpeed)
					fw.Write(tc.bytes)
					fw.Close()
					page, codec = out.Bytes(), codecDeflate
				}
				x := Extent{Len: len(page), N: tc.n, Codec: codec}
				set := fuzzSet(t, &directory{vecs: map[string]entry{"/v": {count: int64(tc.n), ext: []Extent{x}}}}, page)
				v, err := set.Vector("/v")
				if err != nil {
					t.Fatal(err)
				}
				var got []int64
				err = v.Scan(0, 1, func(pos int64, _ []byte) error {
					got = append(got, pos)
					return nil
				})
				if !errors.Is(err, storage.ErrCorrupt) || len(got) != 0 {
					t.Errorf("Scan(0, 1) = %v after positions %v, want ErrCorrupt before any", err, got)
				}
			})
		}
	}
}
