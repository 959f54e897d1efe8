package vector

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"vxml/internal/storage"
)

func newPool(t testing.TB, pages int) (*storage.Store, *storage.BufferPool) {
	t.Helper()
	s, err := storage.OpenStore(t.TempDir(), pages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Pool()
}

// formats are the two codecs; codec-independent tests run once per codec
// setting, through the one reader.
var formats = []struct {
	name       string
	compressed bool
}{{"raw", false}, {"deflate", true}}

// writeVector writes vals as the one vector "/v" of a fresh set stem in
// store, commits it, and returns its reader from the reopened directory.
func writeVector(t testing.TB, store *storage.Store, stem string, compressed bool, vals []string) *Paged {
	t.Helper()
	set, err := CreateDiskSet(store, stem, compressed)
	if err != nil {
		t.Fatal(err)
	}
	w, err := set.NewWriter("/v")
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
	set = reopen(t, store, stem)
	if set.dir.compress != compressed {
		t.Fatalf("%s reopened with compress = %v, want %v", stem, set.dir.compress, compressed)
	}
	v, err := set.Vector("/v")
	if err != nil {
		t.Fatal(err)
	}
	return v.(*Paged)
}

// reopen opens set stem of store from its directory file.
func reopen(t testing.TB, store *storage.Store, stem string) *DiskSet {
	t.Helper()
	body, err := storage.ReadFileChecksummed(store.FS(), filepath.Join(store.Dir(), stem+".dir"))
	if err != nil {
		t.Fatal(err)
	}
	set, err := OpenDiskSet(store, stem, body)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestMemVector(t *testing.T) {
	m := &Mem{}
	m.Append("a")
	m.Append("b")
	if m.Len() != 2 {
		t.Fatalf("Len = %d", m.Len())
	}
	got, err := All(m)
	if err != nil || strings.Join(got, ",") != "a,b" {
		t.Errorf("All = %v, %v", got, err)
	}
	if err := m.Scan(1, 2, func(int64, []byte) error { return nil }); err == nil {
		t.Error("out-of-range scan succeeded")
	}
}

func TestPagedRoundTrip(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 16)
			vals := []string{"SBP", "SBP", "AW", "", "a longer value with spaces", "ünïcode"}
			p := writeVector(t, store, "v", fm.compressed, vals)
			if p.Len() != int64(len(vals)) {
				t.Fatalf("Len = %d, want %d", p.Len(), len(vals))
			}
			got, err := All(p)
			if err != nil {
				t.Fatal(err)
			}
			for i := range vals {
				if got[i] != vals[i] {
					t.Errorf("val[%d] = %q, want %q", i, got[i], vals[i])
				}
			}
		})
	}
}

func TestPagedMultiPage(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 4) // smaller than the file: forces eviction + re-read
			var vals []string
			for i := 0; i < 20000; i++ {
				vals = append(vals, fmt.Sprintf("value-%06d", i))
			}
			p := writeVector(t, store, "v", fm.compressed, vals)
			if p.seg.NumPages() < 5 || len(p.ext) < 5 {
				t.Fatalf("expected multiple pages, got %d extents on %d pages", len(p.ext), p.seg.NumPages())
			}
			// Positional scans from arbitrary offsets.
			for _, start := range []int64{0, 1, 499, 2500, 4999, 12345, 19999} {
				var got string
				if err := p.Scan(start, 1, func(pos int64, val []byte) error {
					if pos != start {
						t.Errorf("pos = %d, want %d", pos, start)
					}
					got = string(val)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if got != vals[start] {
					t.Errorf("val[%d] = %q, want %q", start, got, vals[start])
				}
			}
			// Range spanning pages.
			n := 0
			if err := p.Scan(1000, 15000, func(pos int64, val []byte) error {
				if string(val) != vals[pos] {
					return fmt.Errorf("val[%d] = %q", pos, val)
				}
				n++
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if n != 15000 {
				t.Errorf("scanned %d values, want 15000", n)
			}
		})
	}
}

func TestPagedScanBounds(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 8)
			p := writeVector(t, store, "v", fm.compressed, []string{"a", "b"})
			if err := p.Scan(1, 2, func(int64, []byte) error { return nil }); err == nil {
				t.Error("out-of-range scan succeeded")
			}
			if err := p.Scan(2, 0, func(int64, []byte) error { return nil }); err != nil {
				t.Errorf("empty scan at end failed: %v", err)
			}
		})
	}
}

func TestWriterRejectsOversize(t *testing.T) {
	store, _ := newPool(t, 8)
	set, err := CreateDiskSet(store, "v", false)
	if err != nil {
		t.Fatal(err)
	}
	w, err := set.NewWriter("/v")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(make([]byte, MaxValue)); err != nil {
		t.Errorf("append of MaxValue bytes: %v", err)
	}
	if err := w.Append(make([]byte, MaxValue+1)); err == nil {
		t.Error("oversize append succeeded")
	}
}

// TestWriterRequiresEmptyFile: a new set never writes over a segment that
// already holds pages.
func TestWriterRequiresEmptyFile(t *testing.T) {
	store, _ := newPool(t, 8)
	writeVector(t, store, "v", false, []string{"a"})
	if _, err := CreateDiskSet(store, "v", false); err == nil {
		t.Error("CreateDiskSet on a non-empty segment succeeded")
	}
}

// TestOpenPagedBadMagic: a directory that is not one is corruption.
func TestOpenPagedBadMagic(t *testing.T) {
	store, _ := newPool(t, 8)
	for _, body := range [][]byte{nil, []byte("XXXX"), []byte("XXXX\x00\x00\x00")} {
		if _, err := OpenDiskSet(store, "junk", body); !errors.Is(err, storage.ErrCorrupt) {
			t.Errorf("OpenDiskSet(%q) = %v, want ErrCorrupt", body, err)
		}
	}
}

func TestDiskSetRoundTrip(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			dir := t.TempDir()
			store, err := storage.OpenStore(dir, 32)
			if err != nil {
				t.Fatal(err)
			}
			set, err := CreateDiskSet(store, "vectors", fm.compressed)
			if err != nil {
				t.Fatal(err)
			}
			data := map[string][]string{
				"/bib/book/title":     {"Curation", "XML", "AXML"},
				"/bib/article/author": {"BC", "RH", "BC", "DD", "RH"},
				"/bib/book/note":      nil, // several pages in either format
			}
			for i := 0; i < 5000; i++ {
				data["/bib/book/note"] = append(data["/bib/book/note"], fmt.Sprintf("shared prefix %d", i))
			}
			for name, vals := range data {
				w, err := set.NewWriter(name)
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
			}
			if err := set.Save(); err != nil {
				t.Fatal(err)
			}
			store.Close()

			store2, err := storage.OpenStore(dir, 32)
			if err != nil {
				t.Fatal(err)
			}
			defer store2.Close()
			set2 := reopen(t, store2, "vectors")
			if got := set2.Names(); len(got) != 3 || got[0] != "/bib/article/author" {
				t.Fatalf("Names = %v", got)
			}
			for name, vals := range data {
				v, err := set2.Vector(name)
				if err != nil {
					t.Fatal(err)
				}
				p, ok := v.(*Paged)
				if !ok {
					t.Fatalf("%s reopened as %T, want a *Paged", name, v)
				}
				if name == "/bib/book/note" {
					if len(p.ext) < 2 {
						t.Fatalf("%s has %d extents, want several", name, len(p.ext))
					}
					if fm.compressed && p.ext[0].Codec != codecDeflate {
						t.Errorf("%s's first extent has codec %d, want DEFLATE", name, p.ext[0].Codec)
					}
				}
				got, err := All(v)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Join(got, ",") != strings.Join(vals, ",") {
					t.Errorf("%s = %v, want %v", name, got, vals)
				}
				if c, ok := set2.Count(name); !ok || c != int64(len(vals)) {
					t.Errorf("Count(%s) = %d,%v", name, c, ok)
				}
			}
			// The two short vectors and the long one's tail share a page.
			title, _ := set2.Extents("/bib/book/title")
			author, _ := set2.Extents("/bib/article/author")
			if title[0].Page != author[0].Page {
				t.Errorf("short vectors on pages %d and %d, want one shared page", title[0].Page, author[0].Page)
			}
			if set2.CatalogBytes() == 0 {
				t.Error("CatalogBytes = 0")
			}
			if _, err := set2.Vector("/missing"); err == nil {
				t.Error("missing vector open succeeded")
			}
		})
	}
}

// TestDiskSetFormatMismatch: a directory whose codec for an extent
// disagrees with the bytes stored there is corruption, in either
// direction.
func TestDiskSetFormatMismatch(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 8)
			vals := []string{"x"}
			if fm.compressed {
				vals = strings.Split(strings.Repeat("compressible,", 50), ",")
			}
			p := writeVector(t, store, "v", fm.compressed, vals)
			want := byte(codecRaw)
			if fm.compressed {
				want = codecDeflate
			}
			if p.ext[0].Codec != want {
				t.Fatalf("extent codec %d, want %d", p.ext[0].Codec, want)
			}
			set := reopen(t, store, "v")
			e := set.dir.vecs["/v"]
			e.ext[0].Codec ^= 1
			// Caught by the directory's own checks (a raw extent shorter than
			// its record count) or by the scan.
			set, err := OpenDiskSet(store, "v", set.dir.encode(nil))
			if err == nil {
				var v Vector
				if v, err = set.Vector("/v"); err == nil {
					_, err = All(v)
				}
			}
			if !errors.Is(err, storage.ErrCorrupt) {
				t.Errorf("mismatched codec: err = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDiskSetDuplicateName(t *testing.T) {
	store, _ := newPool(t, 8)
	set, err := CreateDiskSet(store, "v", false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := set.NewWriter("/v"); err != nil {
		t.Fatal(err)
	}
	if _, err := set.NewWriter("/v"); err == nil {
		t.Error("duplicate NewWriter succeeded")
	}
}

func TestTotalValuesAndBytes(t *testing.T) {
	s := NewMemSet()
	s.Add("/a").Append("xy")
	s.Add("/a").Append("z")
	s.Add("/b").Append("1234")
	n, err := TotalValues(s)
	if err != nil || n != 3 {
		t.Errorf("TotalValues = %d, %v", n, err)
	}
	b, err := TotalBytes(s)
	if err != nil || b != 7 {
		t.Errorf("TotalBytes = %d, %v", b, err)
	}
}

// TestPropertyPagedMatchesMem: a paged vector behaves exactly like the
// in-memory reference for random values and random range scans.
func TestPropertyPagedMatchesMem(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 8)
			seq := 0
			f := func(seed int64) bool {
				seq++
				r := rand.New(rand.NewSource(seed))
				n := r.Intn(2000)
				vals := make([]string, n)
				for i := range vals {
					vals[i] = strings.Repeat("x", r.Intn(100)) + fmt.Sprint(i)
				}
				p := writeVector(t, store, fmt.Sprintf("pv%d", seq), fm.compressed, vals)
				m := &Mem{Values: vals}
				for trial := 0; trial < 10; trial++ {
					start := int64(0)
					if n > 0 {
						start = int64(r.Intn(n))
					}
					cnt := int64(0)
					if rem := int64(n) - start; rem > 0 {
						cnt = int64(r.Int63n(rem))
					}
					var a, b []string
					p.Scan(start, cnt, func(_ int64, v []byte) error { a = append(a, string(v)); return nil })
					m.Scan(start, cnt, func(_ int64, v []byte) error { b = append(b, string(v)); return nil })
					if strings.Join(a, "\x00") != strings.Join(b, "\x00") {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestConcurrentScans: one shared reader serves overlapping Scans from
// many goroutines — the reader keeps no scan state, and each Scan of a
// DEFLATE vector borrows its own inflate state.
func TestConcurrentScans(t *testing.T) {
	for _, fm := range formats {
		t.Run(fm.name, func(t *testing.T) {
			store, _ := newPool(t, 8)
			var vals []string
			for i := 0; i < 20000; i++ {
				vals = append(vals, fmt.Sprintf("value-%06d", i))
			}
			p := writeVector(t, store, "v", fm.compressed, vals)
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					r := rand.New(rand.NewSource(int64(g)))
					for i := 0; i < 50; i++ {
						start := r.Int63n(p.Len())
						n := r.Int63n(min(p.Len()-start, 3000)) + 1
						next := start
						err := p.Scan(start, n, func(pos int64, val []byte) error {
							if pos != next || string(val) != vals[pos] {
								return fmt.Errorf("pos %d = %q, want pos %d = %q", pos, val, next, vals[next])
							}
							next++
							return nil
						})
						if err != nil {
							t.Errorf("goroutine %d: Scan(%d, %d): %v", g, start, n, err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func BenchmarkPagedSequentialScan(b *testing.B) {
	store, _ := newPool(b, 256)
	var vals []string
	for i := 0; i < 100000; i++ {
		vals = append(vals, fmt.Sprintf("v%08d", i))
	}
	p := writeVector(b, store, "bench", false, vals)
	b.SetBytes(int64(p.ValueBytes()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var total int
		err := p.Scan(0, p.Len(), func(_ int64, val []byte) error {
			total += len(val)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPagedPointReads(b *testing.B) {
	store, _ := newPool(b, 256)
	var vals []string
	for i := 0; i < 100000; i++ {
		vals = append(vals, fmt.Sprintf("v%08d", i))
	}
	p := writeVector(b, store, "bench", false, vals)
	r := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pos := int64(r.Intn(100000))
		if _, err := Get(p, pos); err != nil {
			b.Fatal(err)
		}
	}
}
