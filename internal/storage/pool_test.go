package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// A miss after an eviction reuses the victim's page buffer: every read
// must still return its own page's bytes, and the evicted *Frame must no
// longer expose the buffer its successor now fills.
func TestPoolReusesEvictedBuffers(t *testing.T) {
	s, _, _ := newFaultStore(t, 2)
	const files = 5
	fs := make([]*File, files)
	for i := range fs {
		fs[i] = writeOnePage(t, s, fmt.Sprintf("v%d", i), []byte(fmt.Sprintf("page of file %d", i)))
	}
	pool := s.Pool()
	pool.ResetStats()
	for round := 0; round < 3; round++ {
		for i, f := range fs {
			fr, err := pool.Get(f, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := []byte(fmt.Sprintf("page of file %d", i))
			if !bytes.HasPrefix(fr.Data, want) {
				t.Errorf("round %d: file %d read %q, want %q", round, i, fr.Data[:len(want)], want)
			}
			pool.Unpin(fr, false)
		}
	}
	if st := pool.StatsSnapshot(); st.Evictions == 0 || st.Misses != 3*files {
		t.Fatalf("stats = %+v, want every Get to miss and evict", st)
	}

	stale, err := pool.Get(fs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	pool.Unpin(stale, false)
	for _, f := range fs[1:3] {
		fr, err := pool.Get(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr, false)
	}
	if stale.Data != nil || stale.full != nil {
		t.Error("evicted frame still holds a page buffer")
	}
}

// A fill that fails on a reused buffer leaves no frame behind: the page is
// absent from the pool, and the next Get reads it cleanly.
func TestPoolFailedFillOnReusedBufferLeavesNoFrame(t *testing.T) {
	s, ffs, _ := newFaultStore(t, 2)
	a := writeOnePage(t, s, "a", []byte("page a"))
	b := writeOnePage(t, s, "b", []byte("page b"))
	c := writeOnePage(t, s, "c", []byte("page c"))
	pool := s.Pool()
	pool.SetRetryPolicy(RetryPolicy{})
	for _, f := range []*File{a, b} {
		fr, err := pool.Get(f, 0)
		if err != nil {
			t.Fatal(err)
		}
		pool.Unpin(fr, false)
	}

	ffs.FailNthRead(1)
	evictions := pool.StatsSnapshot().Evictions
	if _, err := pool.Get(c, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("Get with a failing fill = %v, want ErrInjected", err)
	}
	if pool.StatsSnapshot().Evictions == evictions {
		t.Fatal("the failed fill did not evict: it never ran on a reused buffer")
	}
	pool.mu.Lock()
	_, held := pool.frames[pageKey{c.id, 0}]
	pool.mu.Unlock()
	if held {
		t.Fatal("pool holds a frame for the page whose fill failed")
	}

	for _, tc := range []struct {
		f    *File
		want string
	}{{c, "page c"}, {a, "page a"}, {b, "page b"}} {
		fr, err := pool.Get(tc.f, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(fr.Data[:len(tc.want)]); got != tc.want {
			t.Errorf("read %q, want %q", got, tc.want)
		}
		pool.Unpin(fr, false)
	}
}
