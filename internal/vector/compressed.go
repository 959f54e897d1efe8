package vector

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"

	"vxml/internal/storage"
)

// Compressed vector files are the §6 extension ("we can incorporate
// limited vector compression as suggested in [3] to further reduce I/O
// costs"): values are packed into page-sized batches and each batch is
// DEFLATE-compressed independently, so positional access still touches
// O(log pages) pages and decompression happens one page at a time during
// scans — the query processor never inflates more than it reads. A batch
// DEFLATE would not shrink is stored raw (codec 0). The layout is in
// paged.go, beside the uncompressed one; Paged reads both.

// compBatch is the uncompressed batch size target; recursive splitting at
// flush time right-sizes chunks to the data's compressibility.
const compBatch = 4 * compPayload

// CompressedWriter appends values to a compressed vector file.
type CompressedWriter struct {
	pool    *storage.BufferPool
	file    *storage.File
	buf     bytes.Buffer // uncompressed batch being assembled
	nrecs   int
	first   int64 // index of first record in buf
	count   int64
	bytes   int64
	scratch bytes.Buffer
	err     error

	// page header values for the chunk being written by emitChunk.
	firstOut int64
	nrecsOut int
}

// NewCompressedWriter starts a fresh compressed vector in file.
func NewCompressedWriter(pool *storage.BufferPool, file *storage.File) (*CompressedWriter, error) {
	if err := reserveMeta(pool, file); err != nil {
		return nil, err
	}
	return &CompressedWriter{pool: pool, file: file}, nil
}

// Append adds one value at the next position.
func (w *CompressedWriter) Append(val []byte) error {
	if w.err != nil {
		return w.err
	}
	if len(val) > MaxValue {
		w.err = fmt.Errorf("vector: value of %d bytes exceeds max %d", len(val), MaxValue)
		return w.err
	}
	var lenBuf [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(val)))
	w.buf.Write(lenBuf[:n])
	w.buf.Write(val)
	w.nrecs++
	w.count++
	w.bytes += int64(len(val))
	if w.buf.Len() >= compBatch {
		return w.flushBatch()
	}
	return nil
}

// AppendString adds one string value.
func (w *CompressedWriter) AppendString(val string) error { return w.Append([]byte(val)) }

// flushBatch emits the buffered records as one or more pages: a chunk is
// DEFLATE-compressed and written whole when the result fits a page;
// otherwise it is split at a record boundary near the middle and each
// half handled recursively, so pages pack as much raw data as the data's
// actual compressibility allows (raw storage is the final fallback for
// incompressible page-sized chunks).
func (w *CompressedWriter) flushBatch() error {
	if w.nrecs == 0 {
		return nil
	}
	data := w.buf.Bytes()
	if err := w.emitChunk(data, w.nrecs, w.first); err != nil {
		return err
	}
	w.first = w.count
	w.nrecs = 0
	w.buf.Reset()
	return nil
}

func (w *CompressedWriter) emitChunk(data []byte, recs int, first int64) error {
	w.scratch.Reset()
	fw, err := flate.NewWriter(&w.scratch, flate.BestSpeed)
	if err != nil {
		w.err = err
		return err
	}
	if _, err := fw.Write(data); err != nil {
		w.err = err
		return err
	}
	if err := fw.Close(); err != nil {
		w.err = err
		return err
	}
	payload, flag := w.scratch.Bytes(), byte(codecDeflate)
	if len(payload) >= len(data) && len(data) <= compPayload {
		payload, flag = data, codecRaw // incompressible but fits raw
	}
	if len(payload) <= compPayload {
		w.firstOut, w.nrecsOut = first, recs
		return w.writePage(payload, flag)
	}
	if recs == 1 {
		w.err = fmt.Errorf("vector: single record of %d bytes does not fit a page", len(data))
		return w.err
	}
	// Split near the middle at a record boundary.
	half := recs / 2
	off := 0
	for i := 0; i < half; i++ {
		ln, n := binary.Uvarint(data[off:])
		off += n + int(ln)
	}
	if err := w.emitChunk(data[:off], half, first); err != nil {
		return err
	}
	return w.emitChunk(data[off:], recs-half, first+int64(half))
}

func (w *CompressedWriter) writePage(payload []byte, flag byte) error {
	fr, _, err := w.pool.Alloc(w.file)
	if err != nil {
		w.err = err
		return err
	}
	binary.LittleEndian.PutUint64(fr.Data[0:8], uint64(w.firstOut))
	binary.LittleEndian.PutUint16(fr.Data[8:10], uint16(w.nrecsOut))
	binary.LittleEndian.PutUint16(fr.Data[10:12], uint16(len(payload)))
	fr.Data[12] = flag
	copy(fr.Data[compHeader:], payload)
	w.pool.Unpin(fr, true)
	return nil
}

// Count returns the number of values appended so far.
func (w *CompressedWriter) Count() int64 { return w.count }

// ValueBytes returns the raw byte size of all appended values.
func (w *CompressedWriter) ValueBytes() int64 { return w.bytes }

// Close flushes the final batch and writes the meta page.
func (w *CompressedWriter) Close() error {
	if w.err != nil {
		return w.err
	}
	if err := w.flushBatch(); err != nil {
		return err
	}
	if err := (meta{compressed: true, count: w.count, bytes: w.bytes}).write(w.pool, w.file); err != nil {
		return err
	}
	w.err = errWriterClosed
	return nil
}

// OpenAppendCompressed resumes appending to a finalized compressed vector
// file at resumeAt, the committed count from the catalog. Existing pages
// are untouched; new batches go to fresh pages (the page headers' firstIdx
// keeps positional access consistent). Orphan batches of an uncommitted
// append, past resumeAt, are truncated away. A committed count always
// falls on a batch boundary (batches are flushed whole, and the catalog
// commits only after Close flushed the final one), so one inside a batch
// is corruption. A meta page behind the commit (a crash between batch
// flush and Close) is reported too; unlike the uncompressed format,
// recovery requires rebuilding the vector.
func OpenAppendCompressed(pool *storage.BufferPool, file *storage.File, resumeAt int64) (*CompressedWriter, error) {
	r, err := openAppend(pool, file, true, resumeAt)
	if err != nil {
		return nil, err
	}
	w := &CompressedWriter{pool: pool, file: file, count: resumeAt, first: resumeAt}
	if resumeAt == 0 {
		return w, nil
	}
	if end := r.firstIdx + int64(r.nrecs); end > resumeAt {
		return nil, fmt.Errorf("vector: %s: committed count %d falls inside the batch %d..%d on page %d: %w", file.Path(), resumeAt, r.firstIdx, end, r.page, storage.ErrCorrupt)
	}
	if err := pool.Truncate(file, r.page+1); err != nil {
		return nil, err
	}
	switch {
	case r.meta.count == resumeAt:
		w.bytes = r.meta.bytes
	case r.meta.count < resumeAt:
		return nil, fmt.Errorf("vector: %s: meta page records %d values but the catalog committed %d: %w", file.Path(), r.meta.count, resumeAt, storage.ErrCorrupt)
	default:
		// The meta page ran ahead of the commit (crash after the page flush,
		// before the catalog); recount the committed prefix.
		if w.bytes, err = valueBytes(pool, file, true, 0, resumeAt); err != nil {
			return nil, err
		}
	}
	return w, nil
}
