// Package relational is a miniature relational engine providing the
// comparison systems of the paper's §5 evaluation on the same storage
// substrate as the vectorized store:
//
//   - RowTable — a row store (heap file of complete records), standing in
//     for the SQL Server setup of [17]: every scan reads every column.
//   - ColTable — a column store (one vector per column, sharing a
//     segment), standing in for vertically partitioned relational storage.
//   - SortedIndex + IndexNestedLoopJoin — the tuned-index configuration
//     that wins the paper's SQ3.
//   - Assoc — MonetDB's association-based ("binary relation per path")
//     XML mapping [23, 24], including the dataguide shortcut that turns a
//     value filter into a single binary-table scan and the reconstruction
//     penalty for subtree retrieval.
package relational

import (
	"encoding/binary"
	"fmt"

	"vxml/internal/storage"
)

// RowTable is a heap file of records; each record stores every column's
// value. Reading any column costs reading them all — the row-store trade.
type RowTable struct {
	Name    string
	Columns []string
	pool    *storage.BufferPool
	file    *storage.File
	rows    int64
	// pageFirst[p] is the rowID of the first record on page p, enabling
	// point fetches (index plans need them).
	pageFirst []int64
}

// CreateRowTable starts a new row table in the store.
func CreateRowTable(st *storage.Store, name string, columns []string) (*RowTable, *RowWriter, error) {
	f, err := st.Open("rel/" + name + ".rows")
	if err != nil {
		return nil, nil, err
	}
	w, err := newRecordWriter(st.Pool(), f)
	if err != nil {
		return nil, nil, err
	}
	t := &RowTable{Name: name, Columns: columns, pool: st.Pool(), file: f}
	return t, &RowWriter{t: t, w: w}, nil
}

// RowWriter appends records to a row table.
type RowWriter struct {
	t   *RowTable
	w   *recordWriter
	buf []byte
}

// Append adds one record; vals must match the table's column count.
func (rw *RowWriter) Append(vals []string) error {
	if len(vals) != len(rw.t.Columns) {
		return fmt.Errorf("relational: %s: %d values for %d columns", rw.t.Name, len(vals), len(rw.t.Columns))
	}
	rw.buf = rw.buf[:0]
	for _, v := range vals {
		rw.buf = binary.AppendUvarint(rw.buf, uint64(len(v)))
		rw.buf = append(rw.buf, v...)
	}
	newPage, err := rw.w.append(rw.buf)
	if err != nil {
		return err
	}
	if newPage {
		rw.t.pageFirst = append(rw.t.pageFirst, rw.t.rows)
	}
	rw.t.rows++
	return nil
}

// Get fetches one record by rowID (a point read through the page
// directory — what index-nested-loop plans issue).
func (t *RowTable) Get(rowID int64) ([]string, error) {
	if rowID < 0 || rowID >= t.rows {
		return nil, fmt.Errorf("relational: %s: row %d out of range", t.Name, rowID)
	}
	// Binary search the page whose first row is <= rowID.
	lo, hi := 0, len(t.pageFirst)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if t.pageFirst[mid] <= rowID {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	fr, err := t.pool.Get(t.file, int64(lo))
	if err != nil {
		return nil, err
	}
	defer t.pool.Unpin(fr, false)
	nrecs := int(binary.LittleEndian.Uint16(fr.Data[0:2]))
	off := recHeader
	rid := t.pageFirst[lo]
	for i := 0; i < nrecs; i++ {
		ln, sz := binary.Uvarint(fr.Data[off:])
		if sz <= 0 {
			return nil, fmt.Errorf("relational: %s: corrupt page %d", t.Name, lo)
		}
		off += sz
		if rid == rowID {
			rec := fr.Data[off : off+int(ln)]
			vals := make([]string, len(t.Columns))
			p := 0
			for c := range vals {
				vl, vsz := binary.Uvarint(rec[p:])
				if vsz <= 0 {
					return nil, fmt.Errorf("relational: %s: corrupt record %d", t.Name, rowID)
				}
				p += vsz
				vals[c] = string(rec[p : p+int(vl)])
				p += int(vl)
			}
			return vals, nil
		}
		off += int(ln)
		rid++
	}
	return nil, fmt.Errorf("relational: %s: row %d not found on page %d", t.Name, rowID, lo)
}

// Close finalizes the table.
func (rw *RowWriter) Close() error { return rw.w.close() }

// NumRows returns the record count.
func (t *RowTable) NumRows() int64 { return t.rows }

// Scan decodes every record (all columns — the row-store cost model) and
// calls fn with the values; the slice is reused between calls.
func (t *RowTable) Scan(fn func(rowID int64, vals []string) error) error {
	vals := make([]string, len(t.Columns))
	return t.scanRecords(func(rowID int64, rec []byte) error {
		off := 0
		for i := range vals {
			ln, sz := binary.Uvarint(rec[off:])
			if sz <= 0 {
				return fmt.Errorf("relational: %s: corrupt record %d", t.Name, rowID)
			}
			off += sz
			vals[i] = string(rec[off : off+int(ln)])
			off += int(ln)
		}
		return fn(rowID, vals)
	})
}

func (t *RowTable) scanRecords(fn func(rowID int64, rec []byte) error) error {
	r := &recordReader{pool: t.pool, file: t.file}
	return r.scan(fn)
}

// Col returns the index of a column name, or -1.
func (t *RowTable) Col(name string) int {
	for i, c := range t.Columns {
		if c == name {
			return i
		}
	}
	return -1
}

// recordWriter/recordReader implement a heap file of length-prefixed
// records over 8 KiB pages (header: u16 count, u16 used). Records do not
// span pages.
type recordWriter struct {
	pool  *storage.BufferPool
	file  *storage.File
	frame *storage.Frame
	used  int
	nrecs int
}

const recHeader = 4
const recPayload = storage.PageDataSize - recHeader

func newRecordWriter(pool *storage.BufferPool, file *storage.File) (*recordWriter, error) {
	if file.NumPages() != 0 {
		return nil, fmt.Errorf("relational: writer on non-empty file %s", file.Path())
	}
	return &recordWriter{pool: pool, file: file}, nil
}

// append stores one record, reporting whether a new page was started.
func (w *recordWriter) append(rec []byte) (newPage bool, err error) {
	var lenBuf [binary.MaxVarintLen32]byte
	ln := binary.PutUvarint(lenBuf[:], uint64(len(rec)))
	need := ln + len(rec)
	if need > recPayload {
		return false, fmt.Errorf("relational: record of %d bytes exceeds page payload", len(rec))
	}
	if w.frame == nil || w.used+need > recPayload {
		if err := w.flushPage(); err != nil {
			return false, err
		}
		fr, _, err := w.pool.Alloc(w.file)
		if err != nil {
			return false, err
		}
		w.frame, w.used, w.nrecs = fr, 0, 0
		newPage = true
	}
	off := recHeader + w.used
	copy(w.frame.Data[off:], lenBuf[:ln])
	copy(w.frame.Data[off+ln:], rec)
	w.used += need
	w.nrecs++
	return newPage, nil
}

func (w *recordWriter) flushPage() error {
	if w.frame == nil {
		return nil
	}
	binary.LittleEndian.PutUint16(w.frame.Data[0:2], uint16(w.nrecs))
	binary.LittleEndian.PutUint16(w.frame.Data[2:4], uint16(w.used))
	w.pool.Unpin(w.frame, true)
	w.frame = nil
	return nil
}

func (w *recordWriter) close() error { return w.flushPage() }

type recordReader struct {
	pool *storage.BufferPool
	file *storage.File
}

func (r *recordReader) scan(fn func(rowID int64, rec []byte) error) error {
	rowID := int64(0)
	for pg := int64(0); pg < r.file.NumPages(); pg++ {
		fr, err := r.pool.Get(r.file, pg)
		if err != nil {
			return err
		}
		nrecs := int(binary.LittleEndian.Uint16(fr.Data[0:2]))
		off := recHeader
		for i := 0; i < nrecs; i++ {
			ln, sz := binary.Uvarint(fr.Data[off:])
			if sz <= 0 {
				r.pool.Unpin(fr, false)
				return fmt.Errorf("relational: corrupt page %d", pg)
			}
			off += sz
			if err := fn(rowID, fr.Data[off:off+int(ln)]); err != nil {
				r.pool.Unpin(fr, false)
				return err
			}
			off += int(ln)
			rowID++
		}
		r.pool.Unpin(fr, false)
	}
	return nil
}
