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
	if p.seg.Size() >= p.ValueBytes() {
		t.Errorf("compressed segment %d >= raw %d", p.seg.Size(), p.ValueBytes())
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
	for _, x := range p.ext {
		if x.Codec != codecRaw {
			t.Errorf("extent %+v has codec %d, want %d (stored raw)", x, x.Codec, codecRaw)
		}
	}
}
