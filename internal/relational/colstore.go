package relational

import (
	"fmt"
	"slices"

	"vxml/internal/storage"
	"vxml/internal/vector"
)

// ColTable is a vertically partitioned table: one vector per column, the
// columns sharing one vector segment. Scanning k of n columns costs k/n of
// the row-store I/O — the classic column-store win the paper generalizes
// to XML.
type ColTable struct {
	Name    string
	Columns []string
	set     *vector.DiskSet
	rows    int64
}

// ColWriter appends records column-wise.
type ColWriter struct {
	t       *ColTable
	writers []*vector.Writer
}

// CreateColTable starts a new column table in the store.
func CreateColTable(st *storage.Store, name string, columns []string) (*ColTable, *ColWriter, error) {
	set, err := vector.CreateDiskSet(st, "rel/"+name, false)
	if err != nil {
		return nil, nil, err
	}
	t := &ColTable{Name: name, Columns: columns, set: set}
	w := &ColWriter{t: t}
	for _, c := range columns {
		vw, err := set.NewWriter(c)
		if err != nil {
			return nil, nil, err
		}
		w.writers = append(w.writers, vw)
	}
	return t, w, nil
}

// Append adds one record.
func (w *ColWriter) Append(vals []string) error {
	if len(vals) != len(w.t.Columns) {
		return fmt.Errorf("relational: %s: %d values for %d columns", w.t.Name, len(vals), len(w.t.Columns))
	}
	for i, v := range vals {
		if err := w.writers[i].AppendString(v); err != nil {
			return err
		}
	}
	w.t.rows++
	return nil
}

// Close finalizes the columns. Nothing reopens a ColTable, so its vector
// directory stays in memory and is never saved.
func (w *ColWriter) Close() error {
	for _, vw := range w.writers {
		if err := vw.Close(); err != nil {
			return err
		}
	}
	return nil
}

// NumRows returns the record count.
func (t *ColTable) NumRows() int64 { return t.rows }

// Column returns the vector of one column.
func (t *ColTable) Column(name string) (vector.Vector, error) {
	if !slices.Contains(t.Columns, name) {
		return nil, fmt.Errorf("relational: %s has no column %q", t.Name, name)
	}
	return t.set.Vector(name)
}

// ScanWhere scans predCol once, and for matching rows fetches the selected
// columns positionally — touching only what the query needs.
func (t *ColTable) ScanWhere(predCol string, pred func(string) bool, select_ []string, fn func(rowID int64, vals []string) error) error {
	pc, err := t.Column(predCol)
	if err != nil {
		return err
	}
	sel := make([]vector.Vector, len(select_))
	for i, c := range select_ {
		if sel[i], err = t.Column(c); err != nil {
			return err
		}
	}
	vals := make([]string, len(select_))
	return pc.Scan(0, pc.Len(), func(rowID int64, val []byte) error {
		if !pred(string(val)) {
			return nil
		}
		for i, c := range sel {
			v, err := vector.Get(c, rowID)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		return fn(rowID, vals)
	})
}
