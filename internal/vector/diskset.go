package vector

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"path/filepath"
	"slices"
	"sort"

	"vxml/internal/storage"
)

// DiskSet is a Set backed by a storage.Store: the vectors share one
// segment file of pages, described by one directory (directory.go) that
// maps each name to its count, value bytes and extents. The directory is
// read whole at open, so opening a vector is a map lookup with no I/O; a
// query pays page reads only for the extents it scans, which is the
// paper's central claim.
//
// Concurrency: the read side (Vector, Count, Names, Len, Extents,
// CatalogBytes) is safe for concurrent use — many queries can share one
// DiskSet. The write side (NewWriter, AppendWriter, Writer.Close, Save,
// Rollback) is single-owner: run it from one goroutine, with no
// concurrent readers, as during vectorization.
type DiskSet struct {
	store *storage.Store
	stem  string
	seg   *storage.File
	dir   *directory

	// Write-session state, from the first NewWriter or AppendWriter to Save.
	writing  bool
	packPage int64 // the session's shared page tails are packed into; -1 for none
	packUsed int
	deflate  bytes.Buffer
	fw       *flate.Writer
	dirBuf   []byte // the last directory written, its space reused by the next
	cut      bool   // a Rollback the directory on disk does not hold yet
}

// CreateDiskSet starts an empty disk set in store, its segment and
// directory named stem+".seg" and stem+".dir"; the segment must be empty.
// Close every writer, then call Save.
func CreateDiskSet(store *storage.Store, stem string, compress bool) (*DiskSet, error) {
	s, err := newDiskSet(store, stem, &directory{compress: compress, vecs: make(map[string]entry), shared: make(map[int64]bool)})
	if err != nil {
		return nil, err
	}
	if s.seg.NumPages() != 0 {
		return nil, fmt.Errorf("vector: new disk set on non-empty segment %s", s.seg.Path())
	}
	return s, nil
}

// OpenDiskSet opens the disk set stem of store from its directory's body,
// as storage.ReadFileChecksummed returns it. The segment must hold every
// page the directory committed; pages past them are the orphans of a write
// that never committed, cut off by the next one.
func OpenDiskSet(store *storage.Store, stem string, body []byte) (*DiskSet, error) {
	d, err := decodeDirectory(body)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(store.Dir(), stem+".dir"), err)
	}
	s, err := newDiskSet(store, stem, d)
	if err != nil {
		return nil, err
	}
	if n := s.seg.NumPages(); n < d.pages {
		return nil, fmt.Errorf("vector: %s: truncated to %d pages, directory committed %d: %w", s.seg.Path(), n, d.pages, storage.ErrCorrupt)
	}
	return s, nil
}

func newDiskSet(store *storage.Store, stem string, d *directory) (*DiskSet, error) {
	seg, err := store.Open(stem + ".seg")
	if err != nil {
		return nil, err
	}
	return &DiskSet{store: store, stem: stem, seg: seg, dir: d, packPage: -1}, nil
}

// Segment returns the segment file.
func (s *DiskSet) Segment() *storage.File { return s.seg }

// Pages returns the segment page count the directory commits.
func (s *DiskSet) Pages() int64 { return s.dir.pages }

// Len returns the number of vectors.
func (s *DiskSet) Len() int { return len(s.dir.vecs) }

// Names implements Set.
func (s *DiskSet) Names() []string {
	out := make([]string, 0, len(s.dir.vecs))
	for n := range s.dir.vecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Vector implements Set: a reader over the named vector's extents as the
// directory holds them now.
func (s *DiskSet) Vector(name string) (Vector, error) {
	e, ok := s.dir.vecs[name]
	if !ok {
		return nil, fmt.Errorf("vector: no vector %q", name)
	}
	return &Paged{pool: s.store.Pool(), seg: s.seg, name: name, ext: e.ext, count: e.count, bytes: e.bytes}, nil
}

// Count returns the directory's record count for a vector.
func (s *DiskSet) Count(name string) (int64, bool) {
	e, ok := s.dir.vecs[name]
	return e.count, ok
}

// Extents returns a copy of the named vector's extents.
func (s *DiskSet) Extents(name string) ([]Extent, bool) {
	e, ok := s.dir.vecs[name]
	return slices.Clone(e.ext), ok
}

// CatalogBytes returns the summed raw value bytes across all vectors, from
// the directory alone (no I/O).
func (s *DiskSet) CatalogBytes() int64 {
	var total int64
	for _, e := range s.dir.vecs {
		total += e.bytes
	}
	return total
}

// Reverify re-reads the named vector from disk end to end — every page
// through its CRC trailer, every extent through its record checks — and
// reports the first failure. It is the quarantine-clear path's proof of
// health: the vector's buffered pages are dropped first, so the
// verification reads the *disk*, not frames cached from before the
// failure.
func (s *DiskSet) Reverify(name string) error {
	v, err := s.Vector(name)
	if err != nil {
		return err
	}
	// A frame pinned by an in-flight scan cannot be dropped; the caller
	// retries once that query drains. (Quarantined vectors fail fast in the
	// engine, so pins on them are short-lived stragglers.)
	for _, x := range v.(*Paged).ext {
		if err := s.store.Pool().DropPage(s.seg, x.Page); err != nil {
			return fmt.Errorf("vector: reverify %q: %w", name, err)
		}
	}
	return v.Scan(0, v.Len(), func(int64, []byte) error { return nil })
}

// Rollback cuts a vector back to its first n values — the recovery step
// for an append that committed the directory but crashed before the
// skeleton commit: the skeleton on disk (the authority, being committed
// last) still describes the pre-append document, so the values past n are
// orphans. An extent holding position n is cut at the record boundary,
// which reads its page; an append never merges new values into a DEFLATE
// extent, so one of those holding position n is corruption. The change
// is in memory until the next write session commits it, before that
// session's first page write can overwrite the values cut off.
func (s *DiskSet) Rollback(name string, n int64) error {
	e, ok := s.dir.vecs[name]
	if !ok {
		return fmt.Errorf("vector: no vector %q", name)
	}
	if n > e.count {
		return fmt.Errorf("vector: rollback of %q to %d values, directory has only %d", name, n, e.count)
	}
	if n == e.count {
		return nil
	}
	v, _ := s.Vector(name)
	p := v.(*Paged)
	var dropped int64
	if err := p.Scan(n, e.count-n, func(_ int64, val []byte) error {
		dropped += int64(len(val))
		return nil
	}); err != nil {
		return err
	}
	k := sort.Search(len(e.ext), func(i int) bool { return e.ext[i].end() > n })
	ext := slices.Clone(e.ext[:k])
	if x := e.ext[k]; x.First < n {
		if x.Codec != codecRaw {
			return p.corrupt(x, "committed count %d falls inside the DEFLATE extent [%d,%d)", n, x.First, x.end())
		}
		fr, err := s.store.Pool().Get(s.seg, x.Page)
		if err != nil {
			return err
		}
		recs, off := fr.Data[x.Off:x.Off+x.Len], 0
		for i := x.First; i < n; i++ {
			ln, sz := binary.Uvarint(recs[off:])
			off += sz + int(ln)
		}
		s.store.Pool().Unpin(fr, false)
		x.Len, x.N = off, int(n-x.First)
		ext = append(ext, x)
	}
	s.dir.vecs[name] = entry{count: n, bytes: e.bytes - dropped, ext: ext}
	s.cut = true
	return nil
}

// begin starts a write session: the first write after a commit cuts the
// segment back to the committed pages, dropping the orphans of a write
// that never committed, and packs tails into pages of its own. A Rollback
// is committed first: the session may write over the values it cut off,
// which the directory on disk still lists, and a crash must not leave a
// directory whose extents no longer decode.
func (s *DiskSet) begin() error {
	if s.writing {
		return nil
	}
	if err := s.store.Pool().Truncate(s.seg, s.dir.pages); err != nil {
		return err
	}
	if s.cut {
		if err := s.writeDirectory(); err != nil {
			return err
		}
	}
	s.writing, s.packPage = true, -1
	return nil
}

// NewWriter creates the named vector, which must be new, and returns a
// writer for it. Its Close packs what is left of it into a shared page.
func (s *DiskSet) NewWriter(name string) (*Writer, error) {
	if _, ok := s.dir.vecs[name]; ok {
		return nil, fmt.Errorf("vector: vector %q already exists", name)
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	s.dir.vecs[name] = entry{}
	return &Writer{set: s, name: name, page: -1, pack: true}, nil
}

// AppendWriter returns a writer positioned at the end of the named vector,
// creating the vector if it does not exist yet (a newly appearing path).
// An own tail page is extended in place, after the committed records. A
// tail packed into a shared page is moved, once: its records are read back
// and rewritten with the new ones to a page of the vector's own, and the
// shared page is never written again. Close the writer, then Save.
func (s *DiskSet) AppendWriter(name string) (*Writer, error) {
	e, ok := s.dir.vecs[name]
	if !ok {
		return s.NewWriter(name)
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	w := &Writer{set: s, name: name, count: e.count, bytes: e.bytes, ext: slices.Clone(e.ext), page: -1}
	if len(e.ext) == 0 {
		return w, nil
	}
	tail := e.ext[len(e.ext)-1]
	v, _ := s.Vector(name)
	if !s.dir.shared[tail.Page] {
		// Reading the last value checks the tail extent whole, so new
		// records only ever follow well-formed ones.
		if err := v.Scan(e.count-1, 1, func(int64, []byte) error { return nil }); err != nil {
			return nil, err
		}
		w.page, w.used = tail.Page, tail.Off+tail.Len
		return w, nil
	}
	err := v.Scan(tail.First, int64(tail.N), func(_ int64, val []byte) error {
		w.buf = binary.AppendUvarint(w.buf, uint64(len(val)))
		w.buf = append(w.buf, val...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	w.ext, w.nbuf = w.ext[:len(w.ext)-1], tail.N
	return w, nil
}

// Save commits the set: every page is flushed and the segment fsynced, then
// the directory is written atomically. Close every writer first.
func (s *DiskSet) Save() error {
	if err := s.store.Pool().Flush(); err != nil {
		return err
	}
	if err := s.seg.Sync(); err != nil {
		return err
	}
	s.dir.pages = s.seg.NumPages()
	if err := s.writeDirectory(); err != nil {
		return err
	}
	s.writing = false
	return nil
}

// writeDirectory atomically replaces the directory file with the one in
// memory.
func (s *DiskSet) writeDirectory() error {
	s.dirBuf = s.dir.encode(s.dirBuf[:0])
	if err := storage.WriteFileAtomic(s.store.FS(), filepath.Join(s.store.Dir(), s.stem+".dir"), s.dirBuf); err != nil {
		return fmt.Errorf("vector: save directory: %w", err)
	}
	s.cut = false
	return nil
}

// encode returns records as an extent stores them: DEFLATE-compressed when
// the set compresses and that is smaller, raw otherwise. A compressed
// result is valid until the next call.
func (s *DiskSet) encode(recs []byte) ([]byte, byte, error) {
	if !s.dir.compress {
		return recs, codecRaw, nil
	}
	s.deflate.Reset()
	if s.fw == nil {
		fw, err := flate.NewWriter(&s.deflate, flate.BestSpeed)
		if err != nil {
			return nil, 0, err
		}
		s.fw = fw
	} else {
		s.fw.Reset(&s.deflate)
	}
	if _, err := s.fw.Write(recs); err != nil {
		return nil, 0, err
	}
	if err := s.fw.Close(); err != nil {
		return nil, 0, err
	}
	if s.deflate.Len() < len(recs) {
		return s.deflate.Bytes(), codecDeflate, nil
	}
	return recs, codecRaw, nil
}

// put writes data at byte off of segment page page, or at the start of a
// new page when page < 0, and returns the page.
func (s *DiskSet) put(page int64, off int, data []byte) (int64, error) {
	pool := s.store.Pool()
	var fr *storage.Frame
	var err error
	if page < 0 {
		fr, page, err = pool.Alloc(s.seg)
	} else {
		fr, err = pool.Get(s.seg, page)
	}
	if err != nil {
		return 0, err
	}
	copy(fr.Data[off:], data)
	pool.Unpin(fr, true)
	return page, nil
}

// pack writes data into the session's shared page, or a new one when it
// does not fit, and returns where it went.
func (s *DiskSet) pack(data []byte) (int64, int, error) {
	if s.packPage >= 0 && s.packUsed+len(data) > pageData {
		s.packPage = -1
	}
	off := 0
	if s.packPage >= 0 {
		off = s.packUsed
	}
	page, err := s.put(s.packPage, off, data)
	if err != nil {
		return 0, 0, err
	}
	s.dir.shared[page] = true
	s.packPage, s.packUsed = page, off+len(data)
	return page, off, nil
}

var errWriterClosed = errors.New("vector: writer closed")

// Writer appends values to one vector of a DiskSet. It buffers the records
// not yet written — at most a page's worth — and writes them as one extent
// when the next value would not fit: to the vector's own tail page while
// it has room, else to a new page at the end of the segment. A Writer must
// be the only user of its vector until closed.
type Writer struct {
	set   *DiskSet
	name  string
	buf   []byte // records not yet written
	nbuf  int
	count int64
	bytes int64
	ext   []Extent
	page  int64 // the own page raw records extend, -1 for none
	used  int   // bytes in use on page
	pack  bool  // a new vector: Close packs its tail into a shared page
	err   error
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
	need := (bits.Len(uint(len(val))|1)+6)/7 + len(val) // uvarint prefix + value
	if len(w.buf)+need > w.room() {
		if w.nbuf > 0 {
			if err := w.flush(); err != nil {
				return err
			}
		}
		if need > w.room() {
			w.page = -1
		}
	}
	if len(w.buf)+need > cap(w.buf) {
		// Grow by doubling, but never past a page: thousands of vectors
		// buffer at once while a document is vectorized.
		w.buf = append(make([]byte, 0, min(max(2*cap(w.buf), 64, len(w.buf)+need), pageData)), w.buf...)
	}
	w.buf = binary.AppendUvarint(w.buf, uint64(len(val)))
	w.buf = append(w.buf, val...)
	w.nbuf++
	w.count++
	w.bytes += int64(len(val))
	return nil
}

// AppendString adds one string value.
func (w *Writer) AppendString(val string) error { return w.Append([]byte(val)) }

// Count returns the number of values appended so far.
func (w *Writer) Count() int64 { return w.count }

// ValueBytes returns the raw byte size of all appended values.
func (w *Writer) ValueBytes() int64 { return w.bytes }

// room is how many record bytes the buffer may hold: what is left on the
// own page raw records extend, else a page.
func (w *Writer) room() int {
	if w.page >= 0 && !w.set.dir.compress {
		return pageData - w.used
	}
	return pageData
}

// flush writes the buffered records as one extent: on the own page when
// they fit there, else on a new page, which becomes the own page.
func (w *Writer) flush() error {
	data, codec, err := w.set.encode(w.buf)
	if err == nil {
		page, off := w.page, w.used
		if page < 0 || off+len(data) > pageData {
			page, off = -1, 0
		}
		if page, err = w.set.put(page, off, data); err == nil {
			w.add(Extent{Page: page, Off: off, Len: len(data), Codec: codec})
			w.page, w.used = page, off+len(data)
		}
	}
	w.err = err
	return err
}

// add records the buffered records as extent x (its position and count
// filled in here), merging it into the last extent when x continues it on
// the same page: that is how an own tail page grows in place.
func (w *Writer) add(x Extent) {
	x.First, x.N = w.count-int64(w.nbuf), w.nbuf
	w.buf, w.nbuf = w.buf[:0], 0
	if n := len(w.ext); n > 0 {
		last := &w.ext[n-1]
		if last.Page == x.Page && last.Off+last.Len == x.Off && last.Codec == codecRaw && x.Codec == codecRaw {
			last.Len += x.Len
			last.N += x.N
			return
		}
	}
	w.ext = append(w.ext, x)
}

// Close writes what is buffered — packed into a shared page for a new
// vector, to the own page otherwise — and records the vector in the
// directory (committed by the next Save). The Writer must not be used
// afterwards.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.nbuf > 0 && w.pack {
		data, codec, err := w.set.encode(w.buf)
		if err != nil {
			return err
		}
		page, off, err := w.set.pack(data)
		if err != nil {
			return err
		}
		w.add(Extent{Page: page, Off: off, Len: len(data), Codec: codec})
	} else if w.nbuf > 0 {
		if err := w.flush(); err != nil {
			return err
		}
	}
	w.set.dir.vecs[w.name] = entry{count: w.count, bytes: w.bytes, ext: w.ext}
	w.buf, w.err = nil, errWriterClosed
	return nil
}
