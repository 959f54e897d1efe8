package vector

import (
	"bytes"
	"compress/flate"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"

	"vxml/internal/obs"
	"vxml/internal/storage"
)

// On-disk vector file layout.
//
// Page 0 is the meta page: a magic naming the format, then u64 record
// count and u64 total value bytes. Data pages follow. Every data page
// starts with u64 firstIdx (position of the first record in the page), u16
// record count and u16 payload bytes; the payload is records packed as
// uvarint(length) + bytes. Records never span pages, so one value must fit
// a page payload (MaxValue); the datasets this system targets (scientific
// and synthetic repositories of short fields) satisfy this comfortably.
// A positional seek binary-searches page headers via firstIdx, touching
// O(log pages) pages; a Cursor skips the search when the next scan starts
// on the page its last one ended on, or on the page after.
//
// Two formats share that layout and one reader (Paged):
//
//   - "VXV2" (uncompressed, the default): a 12-byte header, then the
//     records. Written in place by Writer.
//   - "VXC2" (per-page DEFLATE, opt-in): a 13-byte header whose last byte
//     is the page's codec — 0 for records stored raw, 1 for records
//     DEFLATE-compressed as a unit. Written by CompressedWriter.
//
// The payload is bounded by storage.PageDataSize, not PageSize: the
// storage layer reserves the last 4 bytes of every page for a CRC32C
// trailer ("VXV1"/"VXC1" predate the trailer and are rejected).

const (
	metaMagic  = "VXV2"
	headerSize = 12
	payload    = storage.PageDataSize - headerSize
	// MaxValue is the largest storable value, bounded by one page payload
	// minus the worst-case length prefix.
	MaxValue = payload - binary.MaxVarintLen32

	compMagic   = "VXC2"
	compHeader  = 13
	compPayload = storage.PageDataSize - compHeader

	// Codecs of a compressed data page (its header's last byte).
	codecRaw     = 0
	codecDeflate = 1
)

var errWriterClosed = errors.New("vector: writer closed")

// meta is a vector file's page 0: its format and committed totals.
type meta struct {
	compressed bool // "VXC2": data page headers carry a codec byte
	count      int64
	bytes      int64
}

func (md meta) magic() string {
	if md.compressed {
		return compMagic
	}
	return metaMagic
}

// expect reports, as corruption, a file whose format is not the one its
// owner recorded for it.
func (md meta) expect(file *storage.File, compressed bool) error {
	if md.compressed == compressed {
		return nil
	}
	want := meta{compressed: compressed}.magic()
	return fmt.Errorf("vector: %s: bad magic %q (want %q): %w", file.Path(), md.magic(), want, storage.ErrCorrupt)
}

// readMeta reads the meta page of a vector file of either format.
func readMeta(ctx context.Context, pool *storage.BufferPool, file *storage.File, m *obs.TaskMeter) (meta, error) {
	fr, err := pool.GetMeteredCtx(ctx, file, 0, m)
	if err != nil {
		return meta{}, err
	}
	defer pool.Unpin(fr, false)
	magic := string(fr.Data[0:4])
	if magic != metaMagic && magic != compMagic {
		return meta{}, fmt.Errorf("vector: %s: bad magic %q (want %q or %q): %w", file.Path(), magic, metaMagic, compMagic, storage.ErrCorrupt)
	}
	return meta{
		compressed: magic == compMagic,
		count:      int64(binary.LittleEndian.Uint64(fr.Data[4:12])),
		bytes:      int64(binary.LittleEndian.Uint64(fr.Data[12:20])),
	}, nil
}

// write finalizes the meta page a writer reserved with reserveMeta.
func (md meta) write(pool *storage.BufferPool, file *storage.File) error {
	fr, err := pool.Get(file, 0)
	if err != nil {
		return err
	}
	copy(fr.Data[0:4], md.magic())
	binary.LittleEndian.PutUint64(fr.Data[4:12], uint64(md.count))
	binary.LittleEndian.PutUint64(fr.Data[12:20], uint64(md.bytes))
	pool.Unpin(fr, true)
	return nil
}

// reserveMeta allocates page 0 of a fresh vector file, which must be empty.
func reserveMeta(pool *storage.BufferPool, file *storage.File) error {
	if file.NumPages() != 0 {
		return fmt.Errorf("vector: new writer on non-empty file %s", file.Path())
	}
	fr, _, err := pool.Alloc(file)
	if err != nil {
		return err
	}
	pool.Unpin(fr, true)
	return nil
}

// pageHeader decodes the header fields both formats share.
func pageHeader(data []byte) (firstIdx int64, nrecs, used int) {
	return int64(binary.LittleEndian.Uint64(data[0:8])),
		int(binary.LittleEndian.Uint16(data[8:10])),
		int(binary.LittleEndian.Uint16(data[10:12]))
}

// layout returns a format's data page header size and payload capacity.
func layout(compressed bool) (hdr, max int) {
	if compressed {
		return compHeader, compPayload
	}
	return headerSize, payload
}

// pageDecoder turns a data page into its packed record bytes. Each Cursor
// owns one, so the inflate state is never shared between goroutines.
type pageDecoder struct {
	compressed bool
	inf        *inflater // borrowed on the first DEFLATE page
}

// records validates a data page's header and returns its first position,
// record count and packed records. Raw records are returned in place — a
// slice of data, valid while its frame stays pinned; DEFLATE records are
// inflated into the decoder's buffer, valid until the next call.
func (d *pageDecoder) records(file *storage.File, pageNo int64, data []byte) (firstIdx int64, nrecs int, recs []byte, err error) {
	firstIdx, nrecs, used := pageHeader(data)
	hdr, max := layout(d.compressed)
	if used > max {
		return 0, 0, nil, fmt.Errorf("vector: %s: corrupt header on page %d (payload %d > max %d): %w", file.Path(), pageNo, used, max, storage.ErrCorrupt)
	}
	recs = data[hdr : hdr+used]
	if !d.compressed || data[12] == codecRaw {
		return firstIdx, nrecs, recs, nil
	}
	if data[12] != codecDeflate {
		return 0, 0, nil, fmt.Errorf("vector: %s: corrupt header on page %d (unknown codec %d): %w", file.Path(), pageNo, data[12], storage.ErrCorrupt)
	}
	if d.inf == nil {
		d.inf = inflaters.Get().(*inflater)
	}
	if recs, err = d.inf.inflate(recs); err != nil {
		return 0, 0, nil, fmt.Errorf("vector: %s: inflate page %d: %v: %w", file.Path(), pageNo, err, storage.ErrCorrupt)
	}
	obsBytesInflated.Add(int64(len(recs)))
	return firstIdx, nrecs, recs, nil
}

// release returns the decoder's inflate state once its Cursor is done
// with the records it handed out.
func (d *pageDecoder) release() {
	if d.inf != nil {
		inflaters.Put(d.inf)
		d.inf = nil
	}
}

// inflater is a DEFLATE reader, reset onto each page's payload, and the
// buffer it inflates into. Scans borrow one from inflaters, so neither a
// long scan nor a run of point reads allocates one per page.
type inflater struct {
	src bytes.Reader
	rd  io.ReadCloser
	out bytes.Buffer
}

var inflaters = sync.Pool{New: func() any {
	f := new(inflater)
	f.rd = flate.NewReader(&f.src)
	return f
}}

func (f *inflater) inflate(payload []byte) ([]byte, error) {
	f.src.Reset(payload)
	if err := f.rd.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, err
	}
	f.out.Reset()
	if _, err := f.out.ReadFrom(f.rd); err != nil {
		return nil, err
	}
	return f.out.Bytes(), nil
}

// Writer appends values to an uncompressed vector file. Call Close to
// finalize the meta page. A Writer must be the only user of its file until
// closed.
//
// The writer does not keep its current page pinned between appends (it
// re-pins per append and patches the page header each time), so thousands
// of concurrent writers — one per vector of an irregular document — share
// a bounded buffer pool.
type Writer struct {
	pool  *storage.BufferPool
	file  *storage.File
	page  int64 // current data page, -1 before the first
	used  int
	nrecs int
	count int64
	bytes int64
	err   error
}

// NewWriter starts writing a fresh vector into file, which must be empty.
func NewWriter(pool *storage.BufferPool, file *storage.File) (*Writer, error) {
	if err := reserveMeta(pool, file); err != nil {
		return nil, err
	}
	return &Writer{pool: pool, file: file, page: -1}, nil
}

// Append adds one value at the next position.
func (w *Writer) Append(val []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(val) > MaxValue {
		w.err = fmt.Errorf("vector: value of %d bytes exceeds max %d", len(val), MaxValue)
		return w.err
	}
	var lenBuf [binary.MaxVarintLen32]byte
	ln := binary.PutUvarint(lenBuf[:], uint64(len(val)))
	need := ln + len(val)
	var fr *storage.Frame
	if w.page < 0 || w.used+need > payload {
		var err error
		fr, w.page, err = w.pool.Alloc(w.file)
		if err != nil {
			w.err = err
			return err
		}
		w.used, w.nrecs = 0, 0
		binary.LittleEndian.PutUint64(fr.Data[0:8], uint64(w.count))
	} else {
		var err error
		fr, err = w.pool.Get(w.file, w.page)
		if err != nil {
			w.err = err
			return err
		}
	}
	off := headerSize + w.used
	copy(fr.Data[off:], lenBuf[:ln])
	copy(fr.Data[off+ln:], val)
	w.used += need
	w.nrecs++
	w.count++
	w.bytes += int64(len(val))
	// Keep the header current so the page is valid even if evicted.
	binary.LittleEndian.PutUint16(fr.Data[8:10], uint16(w.nrecs))
	binary.LittleEndian.PutUint16(fr.Data[10:12], uint16(w.used))
	w.pool.Unpin(fr, true)
	return nil
}

// AppendString adds one string value.
func (w *Writer) AppendString(val string) error { return w.Append([]byte(val)) }

// Count returns the number of values appended so far.
func (w *Writer) Count() int64 { return w.count }

// ValueBytes returns the raw byte size of all appended values.
func (w *Writer) ValueBytes() int64 { return w.bytes }

// Close finalizes the vector by writing the meta page (data page headers
// are kept current on every append). The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := (meta{count: w.count, bytes: w.bytes}).write(w.pool, w.file); err != nil {
		return err
	}
	w.err = errWriterClosed
	return nil
}

// Paged is a Vector reading a vector file of either format through a
// buffer pool. It keeps no per-scan state, so one Paged may serve any
// number of concurrent Scans (the buffer pool underneath is
// concurrency-safe).
type Paged struct {
	pool *storage.BufferPool
	file *storage.File
	meta
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

// OpenPaged opens a finalized vector file of either format.
func OpenPaged(pool *storage.BufferPool, file *storage.File) (*Paged, error) {
	return OpenPagedCtx(context.Background(), pool, file, nil)
}

// OpenPagedCtx is OpenPaged with request attribution: the meta-page read
// is charged to m and its transient-read retries become events on ctx's
// span, so a fault on the very first page a query touches shows up on
// that query's trace instead of vanishing into process-wide counters.
func OpenPagedCtx(ctx context.Context, pool *storage.BufferPool, file *storage.File, m *obs.TaskMeter) (*Paged, error) {
	md, err := readMeta(ctx, pool, file, m)
	if err != nil {
		return nil, err
	}
	return &Paged{pool: pool, file: file, meta: md}, nil
}

// Len implements Vector.
func (p *Paged) Len() int64 { return p.count }

// ValueBytes returns the total byte size of all values (before any
// compression).
func (p *Paged) ValueBytes() int64 { return p.bytes }

// Scan implements Vector as a one-shot Cursor: a binary search over page
// headers for the page holding start, then pages in sequence.
func (p *Paged) Scan(start, n int64, fn func(pos int64, val []byte) error) error {
	c := NewCursor(p)
	defer c.Close()
	return c.Scan(start, n, fn)
}

// findPage binary-searches data pages lo and after for the one whose
// records cover pos.
func (p *Paged) findPage(lo, pos int64) (int64, error) {
	hi := p.file.NumPages() - 1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		fr, err := p.pool.GetMeteredCtx(p.context(), p.file, mid, p.meter)
		if err != nil {
			return 0, err
		}
		firstIdx, _, _ := pageHeader(fr.Data)
		p.pool.Unpin(fr, false)
		if firstIdx <= pos {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo, nil
}

// valueBytes sums the value bytes at positions [from, to) of a vector file
// by scanning it — the byte-total recount of append resume after a crash.
func valueBytes(pool *storage.BufferPool, file *storage.File, compressed bool, from, to int64) (int64, error) {
	p := &Paged{pool: pool, file: file, meta: meta{compressed: compressed, count: to}}
	var total int64
	err := p.Scan(from, to-from, func(_ int64, val []byte) error {
		total += int64(len(val))
		return nil
	})
	return total, err
}

// resume is where an append to a finalized vector file picks up.
type resume struct {
	meta     meta  // the file's meta page, which may disagree with the commit after a crash
	page     int64 // data page holding record resumeAt-1; 0 when resuming at 0
	firstIdx int64 // that page's header fields
	nrecs    int
	used     int
}

// openAppend reads the meta page of a vector file in the wanted format and
// locates where an append of committed count resumeAt continues. At 0 the
// file is simply emptied. Otherwise the page holding record resumeAt-1 is
// found walking back from the end (the resume point is at or near the
// tail); pages past it hold only orphans of an append that never
// committed, and a file whose data pages end before resumeAt is missing
// committed values — corruption.
func openAppend(pool *storage.BufferPool, file *storage.File, compressed bool, resumeAt int64) (resume, error) {
	md, err := readMeta(context.Background(), pool, file, nil)
	if err != nil {
		return resume{}, err
	}
	if err := md.expect(file, compressed); err != nil {
		return resume{}, err
	}
	r := resume{meta: md}
	if resumeAt == 0 {
		return r, pool.Truncate(file, 1)
	}
	if file.NumPages() < 2 {
		return resume{}, fmt.Errorf("vector: %s: catalog records %d values but file has no data pages: %w", file.Path(), resumeAt, storage.ErrCorrupt)
	}
	_, max := layout(compressed)
	for r.page = file.NumPages() - 1; ; r.page-- {
		if r.page < 1 {
			return resume{}, fmt.Errorf("vector: %s: no data page holds record %d: %w", file.Path(), resumeAt-1, storage.ErrCorrupt)
		}
		fr, err := pool.Get(file, r.page)
		if err != nil {
			return resume{}, err
		}
		r.firstIdx, r.nrecs, r.used = pageHeader(fr.Data)
		pool.Unpin(fr, false)
		if r.used > max {
			return resume{}, fmt.Errorf("vector: %s: corrupt header on page %d (payload %d > max %d): %w", file.Path(), r.page, r.used, max, storage.ErrCorrupt)
		}
		if r.firstIdx < resumeAt {
			break
		}
	}
	if end := r.firstIdx + int64(r.nrecs); end < resumeAt {
		return resume{}, fmt.Errorf("vector: %s: catalog records %d values but data pages end at %d: %w", file.Path(), resumeAt, end, storage.ErrCorrupt)
	}
	return r, nil
}

// OpenAppendWriter resumes appending to a finalized uncompressed vector
// file: the meta page supplies the running count, and the last data page's
// header tells where to continue — the write half of the paper's §6
// incremental maintenance. The caller must Close again to refresh the meta
// page.
//
// resumeAt is the committed value count from the catalog — the durable
// truth. The file may disagree in either direction after a crash: data
// pages (and even the meta page) can run past resumeAt when an append
// died before its catalog commit. Such orphan values are NOT adopted —
// they were never committed, and adopting them would misalign vector
// positions against the skeleton — the file is truncated back to exactly
// resumeAt values (so page headers stay monotonic for positional search)
// and the writer resumes there. A file whose data pages end before
// resumeAt is missing committed values and is reported as corruption.
func OpenAppendWriter(pool *storage.BufferPool, file *storage.File, resumeAt int64) (*Writer, error) {
	r, err := openAppend(pool, file, false, resumeAt)
	if err != nil {
		return nil, err
	}
	w := &Writer{pool: pool, file: file, page: -1}
	if resumeAt == 0 {
		return w, nil
	}
	// Cut the page at record resumeAt: re-decode its records to find the
	// byte offset where the next append lands, and rewrite the header so
	// the page no longer claims the orphan records past the cut.
	fr, err := pool.Get(file, r.page)
	if err != nil {
		return nil, err
	}
	off := 0
	for i := int64(0); i < resumeAt-r.firstIdx; i++ {
		ln, sz := binary.Uvarint(fr.Data[headerSize+off : headerSize+r.used])
		if sz <= 0 || ln > uint64(r.used-off-sz) {
			pool.Unpin(fr, false)
			return nil, fmt.Errorf("vector: %s: corrupt record on page %d: %w", file.Path(), r.page, storage.ErrCorrupt)
		}
		off += sz + int(ln)
	}
	cutDirty := false
	if r.nrecs != int(resumeAt-r.firstIdx) || r.used != off {
		binary.LittleEndian.PutUint16(fr.Data[8:10], uint16(resumeAt-r.firstIdx))
		binary.LittleEndian.PutUint16(fr.Data[10:12], uint16(off))
		cutDirty = true
	}
	pool.Unpin(fr, cutDirty)
	// Drop orphan pages past the cut so positional search never sees a
	// page that was not committed.
	if err := pool.Truncate(file, r.page+1); err != nil {
		return nil, err
	}
	w.page = r.page
	w.nrecs = int(resumeAt - r.firstIdx)
	w.used = off
	w.count = resumeAt
	// Reconstruct the running value-byte total for [0, resumeAt). The meta
	// page gives [0, metaCount) exactly when it matches; otherwise decode
	// the difference (short after a crash) or, if the meta page ran ahead
	// of the commit, recount from the start — rare, and still one
	// sequential read of the vector.
	switch {
	case r.meta.count == resumeAt:
		w.bytes = r.meta.bytes
	case r.meta.count < resumeAt:
		extra, err := valueBytes(pool, file, false, r.meta.count, resumeAt)
		if err != nil {
			return nil, err
		}
		w.bytes = r.meta.bytes + extra
	default:
		if w.bytes, err = valueBytes(pool, file, false, 0, resumeAt); err != nil {
			return nil, err
		}
	}
	return w, nil
}
