package vector

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"vxml/internal/obs"
	"vxml/internal/storage"
)

// On-disk layout: the vectors of a DiskSet share one segment file of
// 8 KiB pages (each with the storage layer's CRC32C trailer), described
// by one binary directory (directory.go).
//
// A page is only a container: it has no header. Each vector is a list of
// extents, each a run of its records stored contiguously in one page —
// its page, byte offset and byte length there, the position of its first
// record, its record count and its codec. A record is uvarint(length) +
// bytes; an extent's bytes are its records as they are (codecRaw) or
// DEFLATE-compressed as a unit (codecDeflate, the §6 extension: decoding
// inflates one extent at a time, so a scan never inflates more than it
// reads). Decoding an extent must consume exactly its byte length for
// exactly its record count; anything else is corruption.
//
// A vector's full pages are its own. What is left of it when it is closed
// — less than a page — is packed into a page shared with other vectors'
// tails, so a repository of thousands of few-value vectors fits in a few
// pages. Records never span pages, so one value must fit a page (MaxValue).

const (
	pageData = storage.PageDataSize
	// MaxValue is the largest storable value: one page minus the
	// worst-case length prefix.
	MaxValue = pageData - binary.MaxVarintLen32

	codecRaw     = 0
	codecDeflate = 1
)

// Extent is a run of one vector's records stored contiguously in one
// segment page.
type Extent struct {
	Page  int64 // segment page
	Off   int   // byte offset in the page
	Len   int   // stored bytes
	First int64 // position of the first record
	N     int   // record count
	Codec byte  // codecRaw or codecDeflate
}

// end returns the position after the extent's last record.
func (e Extent) end() int64 { return e.First + int64(e.N) }

// Paged is a Vector of a DiskSet: its extents in the segment, read through
// the buffer pool. It keeps no per-scan state, so one Paged may serve any
// number of concurrent Scans (the buffer pool underneath is
// concurrency-safe).
type Paged struct {
	pool  *storage.BufferPool
	seg   *storage.File
	name  string
	ext   []Extent // sorted by First; never modified once handed out
	count int64
	bytes int64
	meter *obs.TaskMeter  // nil on shared readers; set on Metered views
	ctx   context.Context // nil on shared readers; set on WithContext views
}

// Metered implements Meterable: the returned view charges page faults to
// m. The receiver is unchanged, so the shared reader stays unattributed.
func (p *Paged) Metered(m *obs.TaskMeter) Vector {
	v := *p
	v.meter = m
	return &v
}

// WithContext implements Contextual: the returned view's page reads honor
// ctx during transient-read retry backoff.
func (p *Paged) WithContext(ctx context.Context) Vector {
	v := *p
	v.ctx = ctx
	return &v
}

func (p *Paged) context() context.Context {
	if p.ctx != nil {
		return p.ctx
	}
	return context.Background()
}

// Len implements Vector.
func (p *Paged) Len() int64 { return p.count }

// ValueBytes returns the total byte size of all values (before any
// compression).
func (p *Paged) ValueBytes() int64 { return p.bytes }

// Scan implements Vector as a one-shot Cursor.
func (p *Paged) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	c := NewCursor(p)
	defer c.Close()
	return c.Scan(start, n, fn)
}

// corrupt reports damage found decoding extent e of the vector.
func (p *Paged) corrupt(e Extent, format string, args ...any) error {
	return fmt.Errorf("vector: %s page %d (vector %q): %s: %w", p.seg.Path(), e.Page, p.name, fmt.Sprintf(format, args...), storage.ErrCorrupt)
}

// pageDecoder turns an extent into its records. Each Cursor owns one, so
// its scratch state is never shared between goroutines.
type pageDecoder struct {
	inf    *inflater // borrowed on the first DEFLATE extent
	bounds *[]uint16 // borrowed by the first index
}

// records returns the records of extent e, whose page is data. Raw records
// are returned in place — a slice of data, valid while its frame stays
// pinned; DEFLATE records are inflated into the decoder's buffer, valid
// until the next call.
func (d *pageDecoder) records(p *Paged, e Extent, data []byte) ([]byte, error) {
	recs := data[e.Off : e.Off+e.Len]
	if e.Codec == codecRaw {
		return recs, nil
	}
	if d.inf == nil {
		d.inf = inflaters.Get().(*inflater)
	}
	out, err := d.inf.inflate(recs)
	if err != nil {
		return nil, p.corrupt(e, "inflate: %v", err)
	}
	obsBytesInflated.Add(int64(len(out)))
	return out, nil
}

// index records the value bounds of recs, which must be exactly n
// well-formed records: value k is recs[b[2k]:b[2k+1]] of the returned b.
// Records fit a page, so the bounds fit uint16.
func (d *pageDecoder) index(recs []byte, n int) ([]uint16, bool) {
	if d.bounds == nil {
		d.bounds = boundsPool.Get().(*[]uint16)
	}
	b := slices.Grow((*d.bounds)[:0], 2*n)
	off := 0
	for i := 0; i < n; i++ {
		if off >= len(recs) {
			return nil, false
		}
		ln, sz := uint64(recs[off]), 1 // most values are shorter than 128 bytes
		if ln >= 0x80 {
			if ln, sz = binary.Uvarint(recs[off:]); sz <= 0 {
				return nil, false
			}
		}
		if ln > uint64(len(recs)-off-sz) {
			return nil, false
		}
		off += sz
		b = append(b, uint16(off), uint16(off+int(ln)))
		off += int(ln)
	}
	*d.bounds = b
	return b, off == len(recs)
}

var boundsPool = sync.Pool{New: func() any { return new([]uint16) }}

// release returns the decoder's scratch state once its Cursor is done
// with the records it handed out.
func (d *pageDecoder) release() {
	if d.inf != nil {
		inflaters.Put(d.inf)
		d.inf = nil
	}
	if d.bounds != nil {
		boundsPool.Put(d.bounds)
		d.bounds = nil
	}
}

// inflater is a DEFLATE reader, reset onto each extent, and the buffer it
// inflates into. Scans borrow one from inflaters, so neither a long scan
// nor a run of point reads allocates one per extent.
type inflater struct {
	src bytes.Reader
	rd  io.ReadCloser
	lim io.LimitedReader
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.rd = flate.NewReader(&f.src)
	return f
}}

// inflate decompresses in, which must be exactly one DEFLATE stream of at
// most a page: the records of an extent never exceed one.
func (f *inflater) inflate(in []byte) ([]byte, error) {
	f.src.Reset(in)
	if err := f.rd.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, err
	}
	f.out.Reset()
	f.lim = io.LimitedReader{R: f.rd, N: pageData + 1}
	if _, err := f.out.ReadFrom(&f.lim); err != nil {
		return nil, err
	}
	if f.out.Len() > pageData {
		return nil, fmt.Errorf("inflates past %d bytes", pageData)
	}
	if n := f.src.Len(); n != 0 {
		return nil, fmt.Errorf("%d bytes past the end of the stream", n)
	}
	return f.out.Bytes(), nil
}
