package vector

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// scanned is what one scan delivered: positions, values and the error.
type scanned struct {
	pos  []int64
	vals []string
	err  error
}

// collect runs one scan through scan, copying what it delivers. When
// stopAt >= 0 the callback fails on its stopAt-th value.
func collect(scan func(start, n int64, fn func(int64, []byte) error) error, start, n int64, stopAt int) scanned {
	var s scanned
	s.err = scan(start, n, func(pos int64, val []byte) error {
		if len(s.pos) == stopAt {
			return errStop
		}
		s.pos = append(s.pos, pos)
		s.vals = append(s.vals, string(val))
		return nil
	})
	return s
}

var errStop = errors.New("stop")

// sameScan compares a cursor's scan with the reference one-shot Scan of
// the same range: the same values at the same positions, and the same
// outcome.
func sameScan(got, want scanned) error {
	if (got.err == nil) != (want.err == nil) || errors.Is(got.err, errStop) != errors.Is(want.err, errStop) {
		return fmt.Errorf("error %v, want %v", got.err, want.err)
	}
	if len(got.pos) != len(want.pos) {
		return fmt.Errorf("delivered %d values, want %d", len(got.pos), len(want.pos))
	}
	for i := range got.pos {
		if got.pos[i] != want.pos[i] || got.vals[i] != want.vals[i] {
			return fmt.Errorf("value %d: %d=%q, want %d=%q", i, got.pos[i], got.vals[i], want.pos[i], want.vals[i])
		}
	}
	return nil
}

// randVals returns n values of random lengths, tagged with their position
// so a value read at the wrong position never matches.
func randVals(r *rand.Rand, n int) []string {
	vals := make([]string, n)
	for i := range vals {
		vals[i] = fmt.Sprintf("%d:%s", i, strings.Repeat(string(rune('a'+r.Intn(26))), r.Intn(40)))
	}
	return vals
}

// TestCursorMatchesScan runs random scan scripts through one cursor and
// checks every scan against a one-shot Scan of the same range and against
// the values written: forward steps, same-extent and next-extent scans,
// backward and far jumps, zero-length and out-of-range scans, and callback
// errors in the middle of an extent followed by more scans — on raw,
// DEFLATE and clamped vectors (a vector rolled back to fewer values than
// its segment holds, as recovery leaves one an append died on) through
// pools of 2 and 64 pages.
func TestCursorMatchesScan(t *testing.T) {
	kinds := []struct {
		name       string
		compressed bool
		clampTail  int // values the segment holds past the vector's end; 0 = none
	}{{"raw", false, 0}, {"deflate", true, 0}, {"clamped", false, 300}}
	for _, kind := range kinds {
		for _, poolPages := range []int{2, 64} {
			t.Run(fmt.Sprintf("%s/pool%d", kind.name, poolPages), func(t *testing.T) {
				store, _ := newPool(t, poolPages)
				for script := 0; script < 20; script++ {
					r := rand.New(rand.NewSource(int64(script)))
					vals := randVals(r, 2000+r.Intn(3000))
					stem := fmt.Sprintf("v%d", script)
					p := writeVector(t, store, stem, kind.compressed, vals)
					n := int64(len(vals))
					if kind.clampTail > 0 {
						n -= int64(kind.clampTail)
						set := reopen(t, store, stem)
						if err := set.Rollback("/v", n); err != nil {
							t.Fatal(err)
						}
						v, _ := set.Vector("/v")
						p = v.(*Paged)
					}
					var v Vector = p
					c := NewCursor(v)
					if c.p != p {
						t.Fatalf("cursor over %T does not read the extents", v)
					}
					var prevStart, prevEnd int64
					for step := 0; step < 200; step++ {
						start, cnt, stopAt := int64(0), int64(1+r.Intn(5)), -1
						switch r.Intn(9) {
						case 0, 1, 2: // forward, often in the same extent
							start = prevEnd + int64(r.Intn(4))
						case 3: // the next extent, directly
							if c.ext >= 0 {
								start = p.ext[c.ext].end()
							}
						case 4: // back within the last scan
							start = prevStart + int64(r.Intn(int(prevEnd-prevStart)+1))
						case 5: // backward jump
							start = int64(r.Intn(int(prevStart) + 1))
						case 6: // far jump, long scan
							start, cnt = int64(r.Intn(int(n))), int64(r.Intn(800))
						case 7: // zero-length, anywhere up to the end
							start, cnt = int64(r.Intn(int(n)+1)), 0
						case 8: // the callback fails mid-scan
							start, cnt = prevEnd, int64(2+r.Intn(300))
							stopAt = r.Intn(int(cnt))
						}
						start, cnt = min(start, n), min(cnt, n-min(start, n))
						if r.Intn(11) == 0 { // out of range
							start, cnt = n-int64(r.Intn(3)), int64(3+r.Intn(3))
							if r.Intn(2) == 0 {
								start = -1 - int64(r.Intn(3))
							}
						}
						got := collect(c.Scan, start, cnt, stopAt)
						want := collect(v.Scan, start, cnt, stopAt)
						if err := sameScan(got, want); err != nil {
							t.Fatalf("script %d step %d: Scan(%d, %d): %v", script, step, start, cnt, err)
						}
						if want.err == nil || errors.Is(want.err, errStop) {
							for i, pos := range want.pos {
								if want.vals[i] != vals[pos] {
									t.Fatalf("script %d step %d: one-shot Scan read %d=%q, want %q", script, step, pos, want.vals[i], vals[pos])
								}
							}
						}
						if start >= 0 && start+cnt <= n && cnt > 0 {
							prevStart, prevEnd = start, start+int64(len(got.pos))
							if prevEnd >= n {
								prevStart, prevEnd = 0, 0
							}
						}
					}
					c.Close()
				}
			})
		}
	}
}

// A pass of ascending single-value probes through one cursor costs one
// pool Get per probe and checks each extent once: no page search, and no
// walk from the top of the extent for a probe after the last one.
func TestCursorPoolTraffic(t *testing.T) {
	store, pool := newPool(t, 64)
	r := rand.New(rand.NewSource(1))
	vals := randVals(r, 20000)
	p := writeVector(t, store, "v", false, vals)
	pages := int64(len(p.ext))
	if pages < 20 {
		t.Fatalf("vector has %d extents, want at least 20", pages)
	}
	const probes = 1000
	step := p.Len() / probes
	gets := func() int64 {
		st := pool.StatsSnapshot()
		return st.Hits + st.Misses
	}
	c := NewCursor(p)
	defer c.Close()
	before, scanned := gets(), obsPagesScanned.Load()
	for i := int64(0); i < probes; i++ {
		pos := i * step
		if err := c.Scan(pos, 1, func(got int64, val []byte) error {
			if got != pos || string(val) != vals[pos] {
				return fmt.Errorf("read %d=%q, want %d=%q", got, val, pos, vals[pos])
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	cursorGets := gets() - before
	t.Logf("%d probes over %d extents: %d pool Gets, %d extent reads", probes, pages, cursorGets, obsPagesScanned.Load()-scanned)
	if cursorGets > probes {
		t.Errorf("cursor made %d pool Gets for %d probes, want at most one each", cursorGets, probes)
	}
}

// TestCursorAfterAppendInPlace: a cursor over a reader opened before an
// append grew its vector's tail page in place keeps reading that reader's
// values correctly, forward and backward; a reader opened after sees the
// appended values too, through the same page.
func TestCursorAfterAppendInPlace(t *testing.T) {
	store, _ := newPool(t, 64)
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("value-%04d", i))
	}
	writeVector(t, store, "v", false, vals)
	set := reopen(t, store, "v")
	appendSession(t, set, "/v") // moves the packed tail to a page of its own
	v, _ := set.Vector("/v")
	p := v.(*Paged)
	c := NewCursor(p)
	defer c.Close()
	read := func(c *Cursor, start, n int64) {
		t.Helper()
		got := collect(c.Scan, start, n, -1)
		if got.err != nil {
			t.Fatalf("Scan(%d, %d): %v", start, n, got.err)
		}
		for i, pos := range got.pos {
			if pos != start+int64(i) || got.vals[i] != vals[pos] {
				t.Fatalf("Scan(%d, %d) read %d=%q, want %d=%q", start, n, pos, got.vals[i], start+int64(i), vals[start+int64(i)])
			}
		}
	}
	read(&c, 990, 5)
	tail := p.ext[len(p.ext)-1]
	// Enough values to fill the tail page and spill onto a new one.
	var more []string
	for i := len(vals); i < 2000; i++ {
		more = append(more, fmt.Sprintf("value-%04d", i))
	}
	appendSession(t, set, "/v", more...)
	vals = append(vals, more...)
	read(&c, 995, 5) // resumes on the grown page
	read(&c, 980, 3) // backward
	if c.Len() != 1000 {
		t.Errorf("the old reader's length changed to %d", c.Len())
	}
	v2, _ := set.Vector("/v")
	grown := v2.(*Paged).ext
	if g := grown[len(p.ext)-1]; g.Page != tail.Page || g.Off != tail.Off || g.Len <= tail.Len || len(grown) <= len(p.ext) {
		t.Fatalf("tail extent %+v became %+v of %d, want it grown in place and a new page after", tail, g, len(grown))
	}
	c2 := NewCursor(v2)
	defer c2.Close()
	read(&c2, 1000, 10)
	read(&c2, 1010, 990)
	read(&c2, 500, 1)
	if got := scanAll(t, v2); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Error("a fresh reader does not see the appended vector")
	}
}
