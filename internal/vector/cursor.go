package vector

import (
	"fmt"

	"vxml/internal/storage"
)

// Cursor reads one vector for one goroutine, remembering the value bounds
// of the extent its last Scan ended in. A scan that starts in that extent
// slices its values straight out of the records, with no walk from the
// top of the extent; any other start finds its extent by a binary search
// over the in-memory extent list, with no page reads. So a row-by-row pass
// in document order — the engine's per-row scans — decodes each extent
// once.
//
// Decoding an extent it has not read yet, the cursor checks that the
// extent is exactly its record count of well-formed records before
// delivering any value of it, so a damaged page never yields misplaced
// values. It pins a page only inside a Scan, so any number of cursors
// share a small buffer pool; any error forgets the remembered extent.
//
// Cursors read Paged vectors extent by extent; on any other Vector, Scan
// is the vector's own Scan.
type Cursor struct {
	v   Vector
	p   *Paged // nil: v is not segment-backed, Scan forwards to it
	n   int64  // v.Len()
	dec pageDecoder

	// The remembered extent: extent ext (-1 for none), whose records were
	// nrecs bytes long, has value bounds bounds (pageDecoder.index).
	ext    int
	nrecs  int
	bounds []uint16
}

// NewCursor returns a cursor over v, as a value so that a short-lived one
// can live on its user's stack. Close it when done.
func NewCursor(v Vector) Cursor {
	c := Cursor{v: v, n: v.Len(), ext: -1}
	c.p, _ = v.(*Paged)
	return c
}

// Len returns the length of the vector under the cursor.
func (c *Cursor) Len() int64 { return c.n }

// Close returns the cursor's scratch state and forgets the remembered
// extent. The cursor stays usable.
func (c *Cursor) Close() {
	c.dec.release()
	c.ext, c.bounds = -1, nil
}

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
		c.ext = -1
	}
	return err
}

// scan reads [pos, end) extent by extent, from the one holding pos.
func (c *Cursor) scan(pos, end int64, fn func(pos int64, val []byte) error) error {
	ext := c.p.ext
	lo, hi := 0, len(ext)
	for lo < hi {
		mid := (lo + hi) / 2
		if ext[mid].end() <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; pos < end; i++ {
		// The directory guarantees extents chain and cover the count; a
		// reader built on anything else fails here instead of delivering
		// values at the wrong positions.
		if i == len(ext) || ext[i].First > pos || i > lo && ext[i].First != pos {
			return fmt.Errorf("vector: %s (vector %q): no extent starts at position %d: %w", c.p.seg.Path(), c.p.name, pos, storage.ErrCorrupt)
		}
		var err error
		if pos, err = c.readExtent(i, pos, end, fn); err != nil {
			return err
		}
	}
	return nil
}

// readExtent calls fn for the records of extent i at positions [pos, end)
// and returns the position the next extent must start at.
func (c *Cursor) readExtent(i int, pos, end int64, fn func(pos int64, val []byte) error) (int64, error) {
	p := c.p
	e := p.ext[i]
	fr, err := p.pool.GetMeteredCtx(p.context(), p.seg, e.Page, p.meter)
	if err != nil {
		return pos, err
	}
	defer p.pool.Unpin(fr, false)
	recs, err := c.dec.records(p, e, fr.Data)
	if err != nil {
		return pos, err
	}
	if i != c.ext || len(recs) != c.nrecs {
		var ok bool
		if c.bounds, ok = c.dec.index(recs, e.N); !ok {
			return pos, p.corrupt(e, "extent of %d bytes is not %d records", len(recs), e.N)
		}
		c.ext, c.nrecs = i, len(recs)
		obsPagesScanned.Inc()
	}
	b := c.bounds[2*int(pos-e.First) : 2*int(min(e.end(), end)-e.First)]
	for k := 0; k < len(b); k += 2 {
		if err := fn(pos, recs[b[k]:b[k+1]]); err != nil {
			return pos, err
		}
		pos++
	}
	return pos, nil
}
