package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func newTestStore(t testing.TB, poolPages int) *Store {
	t.Helper()
	s, err := OpenStore(t.TempDir(), poolPages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestAllocAndReadBack(t *testing.T) {
	s := newTestStore(t, 4)
	f, err := s.Open("v1")
	if err != nil {
		t.Fatal(err)
	}
	fr, pageNo, err := s.Pool().Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	if pageNo != 0 {
		t.Errorf("first page = %d, want 0", pageNo)
	}
	copy(fr.Data, []byte("hello page"))
	s.Pool().Unpin(fr, true)
	if err := s.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	fr2, err := s.Pool().Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Pool().Unpin(fr2, false)
	if !bytes.HasPrefix(fr2.Data, []byte("hello page")) {
		t.Errorf("read back %q", fr2.Data[:16])
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	s := newTestStore(t, 2) // tiny pool forces eviction
	f, err := s.Open("v1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		fr, pageNo, err := s.Pool().Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(pageNo)
		s.Pool().Unpin(fr, true)
	}
	if err := s.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		fr, err := s.Pool().Get(f, i)
		if err != nil {
			t.Fatal(err)
		}
		if fr.Data[0] != byte(i) {
			t.Errorf("page %d data = %d", i, fr.Data[0])
		}
		s.Pool().Unpin(fr, false)
	}
	st := s.Pool().StatsSnapshot()
	if st.Evictions == 0 {
		t.Error("expected evictions with pool of 2 and 10 pages")
	}
}

func TestPinnedPagesNotEvicted(t *testing.T) {
	s := newTestStore(t, 2)
	f, _ := s.Open("v1")
	fr1, _, err := s.Pool().Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	fr2, _, err := s.Pool().Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	// Pool full with two pinned pages; a third must fail.
	if _, _, err := s.Pool().Alloc(f); err == nil {
		t.Error("Alloc succeeded with all frames pinned")
	}
	s.Pool().Unpin(fr1, true)
	s.Pool().Unpin(fr2, true)
	if _, _, err = s.Pool().Alloc(f); err != nil {
		t.Errorf("Alloc after unpin: %v", err)
	}
}

func TestUnbalancedUnpinPanics(t *testing.T) {
	s := newTestStore(t, 2)
	f, _ := s.Open("v1")
	fr, _, err := s.Pool().Alloc(f)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().Unpin(fr, false)
	defer func() {
		if recover() == nil {
			t.Error("double Unpin did not panic")
		}
	}()
	s.Pool().Unpin(fr, false)
}

func TestHitMissCounters(t *testing.T) {
	s := newTestStore(t, 8)
	f, _ := s.Open("v1")
	fr, _, _ := s.Pool().Alloc(f)
	s.Pool().Unpin(fr, true)
	if err := s.Pool().DropFile(f); err != nil {
		t.Fatal(err)
	}
	s.Pool().ResetStats()

	fr, err := s.Pool().Get(f, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Pool().Unpin(fr, false)
	fr, _ = s.Pool().Get(f, 0)
	s.Pool().Unpin(fr, false)
	st := s.Pool().StatsSnapshot()
	if st.Hits != 1 || st.Misses != 1 || st.PagesRead != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 read", st)
	}
}

func TestStoreReopenSameFile(t *testing.T) {
	s := newTestStore(t, 4)
	f1, _ := s.Open("sub/dir/v1")
	f2, _ := s.Open("sub/dir/v1")
	if f1 != f2 {
		t.Error("Open twice returned different files")
	}
	names := s.Names()
	if len(names) != 1 || names[0] != "sub/dir/v1" {
		t.Errorf("Names = %v", names)
	}
}

func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.Open("v1")
	fr, _, _ := s.Pool().Alloc(f)
	copy(fr.Data, []byte("persisted"))
	s.Pool().Unpin(fr, true)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	f2, err := s2.Open("v1")
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumPages() != 1 {
		t.Fatalf("reopened pages = %d, want 1", f2.NumPages())
	}
	fr2, err := s2.Pool().Get(f2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Pool().Unpin(fr2, false)
	if !bytes.HasPrefix(fr2.Data, []byte("persisted")) {
		t.Errorf("read back %q", fr2.Data[:16])
	}
}

func TestStoreRemove(t *testing.T) {
	s := newTestStore(t, 4)
	f, _ := s.Open("doomed")
	fr, _, _ := s.Pool().Alloc(f)
	s.Pool().Unpin(fr, true)
	if err := s.Remove("doomed"); err != nil {
		t.Fatal(err)
	}
	if len(s.Names()) != 0 {
		t.Errorf("Names after remove = %v", s.Names())
	}
}

func TestConcurrentGets(t *testing.T) {
	s := newTestStore(t, 4)
	f, _ := s.Open("v1")
	for i := 0; i < 8; i++ {
		fr, pageNo, err := s.Pool().Alloc(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(pageNo)
		s.Pool().Unpin(fr, true)
	}
	s.Pool().Flush()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				pageNo := int64(r.Intn(8))
				fr, err := s.Pool().Get(f, pageNo)
				if err != nil {
					errs <- err
					return
				}
				if fr.Data[0] != byte(pageNo) {
					errs <- fmt.Errorf("page %d read %d", pageNo, fr.Data[0])
				}
				s.Pool().Unpin(fr, false)
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkPoolGetHit(b *testing.B) {
	s := newTestStore(b, 16)
	f, _ := s.Open("v1")
	fr, _, _ := s.Pool().Alloc(f)
	s.Pool().Unpin(fr, true)
	s.Pool().Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fr, err := s.Pool().Get(f, 0)
		if err != nil {
			b.Fatal(err)
		}
		s.Pool().Unpin(fr, false)
	}
}
