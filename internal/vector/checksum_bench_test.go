package vector

import (
	"fmt"
	"testing"

	"vxml/internal/storage"
)

// benchChecksumScan measures a full sequential scan of a multi-page vector
// through a pool much smaller than the file, so every page is faulted in
// (and, when verify is on, CRC-checked) on every iteration. The ratio of
// the two benchmarks is the checksum-on-read overhead the format pays;
// the robustness budget is <5% on representative data.
//
// Value width is the lever: short values (the datasets' typical titles,
// names, and numbers) pack hundreds of records per page, so per-page
// decode work dwarfs one 8 KiB CRC; wide values approach the worst case
// where the CRC competes with a nearly free scan.
func benchChecksumScan(b *testing.B, verify bool, wide bool) {
	store, _ := newPool(b, 64)
	const nvals = 200_000
	vals := make([]string, nvals)
	for i := range vals {
		if wide {
			vals[i] = fmt.Sprintf("value-%06d-%088d", i, i) // ~100 B → ~2500 pages
		} else {
			vals[i] = fmt.Sprintf("value-%06d", i) // 12 B → ~300 pages
		}
	}
	v := writeVector(b, store, "v", false, vals)
	prev := storage.SetVerifyChecksums(verify)
	defer storage.SetVerifyChecksums(prev)
	b.SetBytes(v.seg.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n int64
		if err := v.Scan(0, v.Len(), func(int64, []byte) error { n++; return nil }); err != nil {
			b.Fatal(err)
		}
		if n != nvals {
			b.Fatalf("scanned %d values, want %d", n, nvals)
		}
	}
}

func BenchmarkScanVerifyOn(b *testing.B)      { benchChecksumScan(b, true, false) }
func BenchmarkScanVerifyOff(b *testing.B)     { benchChecksumScan(b, false, false) }
func BenchmarkScanWideVerifyOn(b *testing.B)  { benchChecksumScan(b, true, true) }
func BenchmarkScanWideVerifyOff(b *testing.B) { benchChecksumScan(b, false, true) }
