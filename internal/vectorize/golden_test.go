package vectorize

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"vxml/internal/datagen"
	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

// goldenSeed seeds every generated document below; it is the benchmark
// harness's dataset seed, and the sizes are its smoke sizes.
const goldenSeed = 20050405

// TestSkeletonBytesGolden pins skeleton.bin's body — the bytes Encode
// writes — for one fixed-seed document of each dataset family, and for a
// repository grown by appends. A change to node numbering (hash-consing
// order, import order, Append's compaction) or to format 3 moves a hash.
func TestSkeletonBytesGolden(t *testing.T) {
	docs := []struct {
		name string
		gen  func(io.Writer) error
		want string
	}{
		{"XK", datagen.XMark{Scale: 0.1, Seed: goldenSeed}.Generate,
			"18ff578a605d5e50f374f098d006bad51a5b34ef2c047ea006e9abcde9e8a39e"},
		{"TB", datagen.TreeBank{Sentences: 60, MaxDepth: 4, Seed: goldenSeed}.Generate,
			"c9a322b3b20f61ad4f513a8094f7aeebaf05554babbe9035d2ce308c7316cbc1"},
		{"ML", datagen.MedLine{Citations: 150, Seed: goldenSeed}.Generate,
			"01ac1bf6bc1c3cf3a05f765a6887751d11868745b7cb3c873f5ad2615f9d8d97"},
		{"SS", datagen.SkyServerDB{Rows: 60, Cols: 12, NeighborRows: 30, Seed: goldenSeed}.Generate,
			"ad123f94c3fc850324b50d8ea002f5b3be5d85720744ad6f28533b0deb6d1703"},
	}
	for _, d := range docs {
		var doc bytes.Buffer
		if err := d.gen(&doc); err != nil {
			t.Fatal(err)
		}
		syms := xmlmodel.NewSymbols()
		skel, err := VectorizeStream(&doc, syms, MemSink{Set: vector.NewMemSet()})
		if err != nil {
			t.Fatal(err)
		}
		if got := encodedHash(t, skel, syms); got != d.want {
			t.Errorf("%s: skeleton hash %s, want %s", d.name, got, d.want)
		}
	}

	// Three TreeBank documents: one Create, two Appends.
	dir := t.TempDir()
	var doc bytes.Buffer
	if err := (datagen.TreeBank{Sentences: 60, MaxDepth: 4, Seed: 1}).Generate(&doc); err != nil {
		t.Fatal(err)
	}
	repo, err := Create(&doc, dir, Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()
	for seed := int64(2); seed <= 3; seed++ {
		doc.Reset()
		if err := (datagen.TreeBank{Sentences: 60, MaxDepth: 4, Seed: seed}).Generate(&doc); err != nil {
			t.Fatal(err)
		}
		if err := repo.Append(&doc); err != nil {
			t.Fatal(err)
		}
	}
	const wantAppended = "ef2812b1052e8d0d599bab020ca2032fcb3a8003e9eec2c2a4fd4898e280ef7d"
	if got := encodedHash(t, repo.Skel, repo.Syms); got != wantAppended {
		t.Errorf("TB appended: skeleton hash %s, want %s", got, wantAppended)
	}
}

func encodedHash(t *testing.T, skel *skeleton.Skeleton, syms *xmlmodel.Symbols) string {
	t.Helper()
	var buf bytes.Buffer
	if err := skeleton.Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}
