package vector

import (
	"encoding/binary"
	"errors"
	"fmt"

	"vxml/internal/storage"
)

// Cursor reads one vector for one goroutine, remembering where its last
// Scan stopped: the data page, the positions [first, last) that page
// holds, and the byte offset of the next record. A scan that starts on
// the same page resumes at that offset instead of re-decoding the page
// from the top; one that starts past it reads the next page directly,
// binary-searching only the pages after that one when the next page does
// not hold the start either. So a row-by-row pass in document order — the
// engine's per-row scans — decodes each page about once and skips the
// page search for all but the long jumps.
//
// The cursor pins a page only inside a Scan, so any number of cursors
// share a small buffer pool. Every check of a plain Scan still runs on
// every page it reads; the remembered offset is used only when the
// page's header still names the remembered first position, and any
// error forgets it. A page picked from the resume point that no longer
// holds the start (an append grew or rewrote it) sends the scan back to
// the full page search. Records a page already held are never rewritten
// in place while it keeps its first position (appends only add records),
// which is what makes the remembered offset safe to reuse.
//
// Cursors read Paged vectors (also behind the DiskSet's clamp) page by
// page; on any other Vector, Scan is the vector's own Scan.
type Cursor struct {
	v   Vector
	p   *Paged // nil: v is not page-backed, Scan forwards to it
	n   int64  // v.Len()
	dec pageDecoder

	// The resume point: data page page (0 for none) holds positions
	// [first, last), and record next starts at byte off of its records.
	page        int64
	first, last int64
	next        int64
	off         int
}

// NewCursor returns a cursor over v, as a value so that a short-lived one
// can live on its user's stack. Close it when done.
func NewCursor(v Vector) Cursor {
	c := Cursor{v: v, n: v.Len()}
	switch t := v.(type) {
	case *Paged:
		c.p = t
	case *clamped:
		c.p, _ = t.Vector.(*Paged)
	}
	if c.p != nil {
		c.dec.compressed = c.p.compressed
	}
	return c
}

// Len returns the length of the vector under the cursor.
func (c *Cursor) Len() int64 { return c.n }

// Close returns the cursor's inflate state. The cursor stays usable.
func (c *Cursor) Close() { c.dec.release() }

// A page picked from the resume point that does not hold the scan's first
// position: errPast when the position lies past it, errStale otherwise
// (the page changed since). Nothing has been delivered; the scan searches
// for the position instead — after that page, or over the whole file.
var (
	errPast  = errors.New("vector: position past the resumed page")
	errStale = errors.New("vector: stale resume point")
)

// Scan calls fn for positions [start, start+n) in order, exactly as the
// vector's own Scan would (Vector.Scan's contract on val applies).
func (c *Cursor) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	if c.p == nil {
		return c.v.Scan(start, n, fn)
	}
	if start < 0 || n < 0 || start+n > c.n {
		return fmt.Errorf("vector: scan [%d,%d) out of range 0..%d", start, start+n, c.n)
	}
	if n == 0 {
		return nil
	}
	err := c.scan(start, start+n, fn)
	if err != nil {
		c.page = 0
	}
	return err
}

// scan reads [pos, end). A scan at or after the remembered page starts on
// it when it holds pos, else on the page after it — the next row's page
// in a pass in document order; a jump further on binary-searches the
// pages after that one, and anything else searches the whole file.
func (c *Cursor) scan(pos, end int64, fn func(pos int64, val []byte) error) error {
	lo := int64(1)
	if c.page != 0 && pos >= c.first {
		pageNo := c.page
		if pos >= c.last {
			pageNo++
		}
		switch err := c.scanFrom(pageNo, true, pos, end, fn); err {
		case errPast:
			lo = pageNo + 1
		case errStale:
		default:
			return err
		}
	}
	pageNo, err := c.p.findPage(lo, pos)
	if err != nil {
		return err
	}
	return c.scanFrom(pageNo, false, pos, end, fn)
}

// scanFrom streams positions [pos, end) from data page pageNo onward,
// leaving the resume point at the end of the last page it read. A
// resumed scan (its first page picked from the resume point, not by a
// search) whose first page does not hold pos returns errPast or errStale
// before calling fn.
func (c *Cursor) scanFrom(pageNo int64, resumed bool, pos, end int64, fn func(pos int64, val []byte) error) error {
	p := c.p
	for first := true; pos < end; first, pageNo = false, pageNo+1 {
		if pageNo >= p.file.NumPages() {
			if resumed && first {
				return errStale
			}
			return fmt.Errorf("vector: %s: scan ran past last page (pos %d, want %d): %w", p.file.Path(), pos, end, storage.ErrCorrupt)
		}
		fr, err := p.pool.GetMeteredCtx(p.context(), p.file, pageNo, p.meter)
		if err != nil {
			return err
		}
		pos, err = c.readPage(fr.Data, pageNo, first, first && resumed, pos, end, fn)
		p.pool.Unpin(fr, false)
		if err != nil {
			return err
		}
	}
	return nil
}

// readPage calls fn for the records of one data page at positions
// [pos, end) and returns the position the next page must start at. It
// starts decoding at the resume point when the page is the remembered one
// and its header still names the remembered first position, and from the
// top of the page otherwise.
func (c *Cursor) readPage(data []byte, pageNo int64, first, resumed bool, pos, end int64, fn func(pos int64, val []byte) error) (int64, error) {
	firstIdx, nrecs, recs, err := c.dec.records(c.p.file, pageNo, data)
	if err != nil {
		return pos, err
	}
	// Positions come from disk too: the page a scan starts on must hold
	// pos, and each later page must start where the previous one ended.
	// Otherwise the scan would deliver too few values, or values at the
	// wrong positions, and still succeed.
	last := firstIdx + int64(nrecs)
	if first && (firstIdx > pos || pos >= last) || !first && firstIdx != pos {
		switch {
		case resumed && firstIdx <= pos:
			return pos, errPast
		case resumed:
			return pos, errStale
		}
		return pos, fmt.Errorf("vector: %s: corrupt page %d: holds positions [%d,%d), scan expects %d: %w", c.p.file.Path(), pageNo, firstIdx, last, pos, storage.ErrCorrupt)
	}
	obsPagesScanned.Inc()
	idx, off := firstIdx, 0
	if pageNo == c.page && firstIdx == c.first && c.next <= pos && c.off <= len(recs) {
		idx, off = c.next, c.off
	}
	c.page, c.first, c.last = pageNo, firstIdx, last
	// Record lengths come from disk: every prefix and value must stay
	// inside the page's records, or the record is corrupt.
	for ; idx < last && idx < end; idx++ {
		ln, sz := binary.Uvarint(recs[off:])
		if sz <= 0 || ln > uint64(len(recs)-off-sz) {
			return pos, fmt.Errorf("vector: %s: corrupt record on page %d: %w", c.p.file.Path(), pageNo, storage.ErrCorrupt)
		}
		off += sz
		if idx >= pos {
			if err := fn(idx, recs[off:off+int(ln)]); err != nil {
				return pos, err
			}
		}
		off += int(ln)
	}
	c.next, c.off = idx, off
	return idx, nil
}
