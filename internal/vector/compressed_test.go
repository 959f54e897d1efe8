package vector

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Format-independent behaviour of compressed vectors is tested beside the
// uncompressed format's, over both formats (vector_test.go); these tests
// cover what only the compressed writer does.

func TestCompressedRoundTrip(t *testing.T) {
	store, _ := newPool(t, 64)
	var vals []string
	for i := 0; i < 20000; i++ {
		vals = append(vals, fmt.Sprintf("value-%06d-%s", i, strings.Repeat("pad", i%5)))
	}
	p := writeVector(t, store, "cv", true, vals)
	if p.Len() != int64(len(vals)) {
		t.Fatalf("Len = %d", p.Len())
	}
	got, err := All(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("val[%d] = %q, want %q", i, got[i], vals[i])
		}
	}
	// Compression must actually shrink redundant text.
	f, _ := store.Open("cv")
	if f.Size() >= p.ValueBytes() {
		t.Errorf("compressed file %d >= raw %d", f.Size(), p.ValueBytes())
	}
}

// TestCompressedIncompressibleData: random bytes DEFLATE cannot shrink are
// stored raw (codec 0) and read back in place.
func TestCompressedIncompressibleData(t *testing.T) {
	store, _ := newPool(t, 256)
	r := rand.New(rand.NewSource(1))
	var vals []string
	for i := 0; i < 4000; i++ {
		b := make([]byte, 40)
		for j := range b {
			b[j] = byte(r.Intn(256))
		}
		vals = append(vals, string(b))
	}
	p := writeVector(t, store, "cv", true, vals)
	got, err := All(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range vals {
		if got[i] != vals[i] {
			t.Fatalf("val[%d] mismatch", i)
		}
	}
	for pg := int64(1); pg < p.file.NumPages(); pg++ {
		fr, err := p.pool.Get(p.file, pg)
		if err != nil {
			t.Fatal(err)
		}
		if codec := fr.Data[12]; codec != codecRaw {
			t.Errorf("page %d has codec %d, want %d (stored raw)", pg, codec, codecRaw)
		}
		p.pool.Unpin(fr, false)
	}
}
