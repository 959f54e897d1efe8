package vector

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"vxml/internal/storage"
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
// the values written: forward steps, same-page and next-page scans,
// backward and far jumps, zero-length and out-of-range scans, callback
// errors in the middle of a page followed by more scans, and — for raw
// vectors — the tail rewritten in place under the cursor (so a page it
// remembers starts at another position), on raw, DEFLATE and clamped
// vectors through pools of 2 and 64 pages.
func TestCursorMatchesScan(t *testing.T) {
	kinds := []struct {
		name       string
		compressed bool
		clampTail  int // values the file holds past the clamp; 0 = no clamp
	}{{"raw", false, 0}, {"deflate", true, 0}, {"clamped", false, 300}}
	for _, kind := range kinds {
		for _, poolPages := range []int{2, 64} {
			t.Run(fmt.Sprintf("%s/pool%d", kind.name, poolPages), func(t *testing.T) {
				store, pool := newPool(t, poolPages)
				for script := 0; script < 20; script++ {
					r := rand.New(rand.NewSource(int64(script)))
					vals := randVals(r, 2000+r.Intn(3000))
					name := fmt.Sprintf("v%d", script)
					p := writeVector(t, store, name, kind.compressed, vals)
					var v Vector = p
					n := int64(len(vals))
					if kind.clampTail > 0 {
						n -= int64(kind.clampTail)
						v = &clamped{Vector: p, n: n}
					}
					c := NewCursor(v)
					if c.p != p {
						t.Fatalf("cursor over %T does not read the pages", v)
					}
					var prevStart, prevEnd int64
					rewritten := false
					for step := 0; step < 200; step++ {
						start, cnt, stopAt := int64(0), int64(1+r.Intn(5)), -1
						switch r.Intn(11) {
						case 0, 1, 2: // forward, often on the same page
							start = prevEnd + int64(r.Intn(4))
						case 3: // the next page, directly
							start = c.last
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
						case 9: // rewrite the tail under the cursor (once), then go on
							if kind.compressed || rewritten || c.page < 2 {
								continue
							}
							vals = rewriteTail(t, pool, p, vals, int64(r.Intn(int(c.first))))
							rewritten, start = true, prevEnd
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

// rewriteTail rewrites a raw vector in place from position cut on, keeping
// its length, with every value longer than the longest before: each page
// past the cut holds fewer records, so it now starts at an earlier
// position. It returns the vector's new values.
func rewriteTail(t *testing.T, pool *storage.BufferPool, p *Paged, vals []string, cut int64) []string {
	t.Helper()
	w, err := OpenAppendWriter(pool, p.file, cut)
	if err != nil {
		t.Fatal(err)
	}
	longest := 0
	for _, v := range vals {
		longest = max(longest, len(v))
	}
	vals = append(vals[:cut:cut], vals[cut:]...)
	for i := cut; i < int64(len(vals)); i++ {
		vals[i] += strings.Repeat("R", longest+1)
		if err := w.AppendString(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return vals
}

// A pass of ascending single-value probes through one cursor costs about
// one pool Get per probe: no page search while the next probe is on the
// same page or the next one. (A one-shot Scan per probe binary-searches
// the page headers each time: about probes × (1 + log₂ pages) Gets.)
func TestCursorPoolTraffic(t *testing.T) {
	store, pool := newPool(t, 64)
	r := rand.New(rand.NewSource(1))
	vals := randVals(r, 20000)
	p := writeVector(t, store, "v", false, vals)
	pages := p.file.NumPages() - 1
	if pages < 20 {
		t.Fatalf("vector has %d data pages, want at least 20", pages)
	}
	const probes = 1000
	step := p.Len() / probes
	gets := func() int64 {
		st := pool.StatsSnapshot()
		return st.Hits + st.Misses
	}
	probe := func(scan func(start, n int64, fn func(int64, []byte) error) error) int64 {
		before := gets()
		for i := int64(0); i < probes; i++ {
			pos := i * step
			if err := scan(pos, 1, func(got int64, val []byte) error {
				if got != pos || string(val) != vals[pos] {
					return fmt.Errorf("read %d=%q, want %d=%q", got, val, pos, vals[pos])
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		return gets() - before
	}
	c := NewCursor(p)
	defer c.Close()
	cursorGets, scanGets := probe(c.Scan), probe(p.Scan)
	t.Logf("%d probes over %d pages: %d pool Gets through one cursor, %d through one-shot Scans", probes, pages, cursorGets, scanGets)
	if cursorGets > probes+pages {
		t.Errorf("cursor made %d pool Gets for %d probes over %d pages, want at most %d", cursorGets, probes, pages, probes+pages)
	}
}

// TestCursorAfterAppendInPlace: a cursor that read a vector's last page
// keeps reading correctly after an append grew that page in place — the
// positions it read before and the new ones, through the same cursor once
// its reader covers them.
func TestCursorAfterAppendInPlace(t *testing.T) {
	store, pool := newPool(t, 64)
	var vals []string
	for i := 0; i < 1000; i++ {
		vals = append(vals, fmt.Sprintf("value-%04d", i))
	}
	p := writeVector(t, store, "v", false, vals)
	c := NewCursor(p)
	defer c.Close()
	read := func(start, n int64) {
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
	read(990, 5)
	lastPage := c.page
	w, err := OpenAppendWriter(pool, p.file, int64(len(vals)))
	if err != nil {
		t.Fatal(err)
	}
	// Enough values to fill the last page and spill onto a new one.
	for i := len(vals); i < 2000; i++ {
		vals = append(vals, fmt.Sprintf("value-%04d", i))
		if err := w.AppendString(vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if p.file.NumPages()-1 <= lastPage {
		t.Fatalf("append did not spill past page %d", lastPage)
	}
	read(995, 5) // resumes on the grown page
	read(980, 3) // backward
	// The same cursor once its reader covers the appended values.
	p.count = int64(len(vals))
	c.n = p.count
	read(1000, 10)
	read(1010, 990)
	read(500, 1)
	p2, err := OpenPaged(pool, p.file)
	if err != nil {
		t.Fatal(err)
	}
	if got := scanAll(t, p2); strings.Join(got, ",") != strings.Join(vals, ",") {
		t.Error("a fresh reader does not see the appended vector")
	}
}
