package vector

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"vxml/internal/storage"
)

// The directory is a DiskSet's one metadata file, written atomically with
// a checksum footer after the segment pages it describes are fsynced:
//
//	"VXD3", u8 flags (bit 0: new extents are DEFLATE-compressed),
//	uvarint committed segment pages, uvarint vector count, then per
//	vector in name order: the name front-coded against the previous one
//	(uvarint shared prefix length, uvarint suffix length, suffix),
//	uvarint count, uvarint value bytes, uvarint extent count, and per
//	extent uvarint page, offset, length, first position and record
//	count, then u8 codec.
//
// The decoder accepts only directories whose extents lie inside the
// committed pages' data areas, never overlap, chain (each starts at the
// position after the previous one's last record, the first at 0) and
// add up to the vector's count.

const dirMagic = "VXD3"

const flagCompress = 1

// entry is one vector's directory record.
type entry struct {
	count int64
	bytes int64
	ext   []Extent
}

// directory is a decoded directory file.
type directory struct {
	compress bool
	pages    int64 // committed segment pages
	vecs     map[string]entry
	shared   map[int64]bool // pages holding extents of more than one vector
}

// encode appends the directory file body to dst, whose spare capacity a
// caller saving repeatedly can reuse.
func (d *directory) encode(dst []byte) []byte {
	names := make([]string, 0, len(d.vecs))
	size := 64 // room for typical field sizes, so encoding allocates once
	for name, e := range d.vecs {
		names = append(names, name)
		size += len(name) + 5*binary.MaxVarintLen16 + 5*binary.MaxVarintLen32*len(e.ext)
	}
	sort.Strings(names)
	b := append(slices.Grow(dst, size), dirMagic...)
	var flags byte
	if d.compress {
		flags = flagCompress
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(d.pages))
	b = binary.AppendUvarint(b, uint64(len(names)))
	prev := ""
	for _, name := range names {
		p := 0
		for p < len(prev) && p < len(name) && prev[p] == name[p] {
			p++
		}
		b = binary.AppendUvarint(b, uint64(p))
		b = binary.AppendUvarint(b, uint64(len(name)-p))
		b = append(b, name[p:]...)
		e := d.vecs[name]
		b = binary.AppendUvarint(b, uint64(e.count))
		b = binary.AppendUvarint(b, uint64(e.bytes))
		b = binary.AppendUvarint(b, uint64(len(e.ext)))
		for _, x := range e.ext {
			for _, v := range [...]int64{x.Page, int64(x.Off), int64(x.Len), x.First, int64(x.N)} {
				b = binary.AppendUvarint(b, uint64(v))
			}
			b = append(b, x.Codec)
		}
		prev = name
	}
	return b
}

// dirReader decodes directory fields, remembering the first failure.
type dirReader struct {
	b   []byte
	err error
}

func (r *dirReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("vector: directory: %s: %w", fmt.Sprintf(format, args...), storage.ErrCorrupt)
	}
}

// uint reads a uvarint no larger than max.
func (r *dirReader) uint(what string, max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > max {
		r.fail("bad %s", what)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *dirReader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.fail("%d bytes past the end", n-len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

// decodeDirectory parses and validates a directory file body.
func decodeDirectory(data []byte) (*directory, error) {
	r := &dirReader{b: data}
	if string(r.bytes(len(dirMagic))) != dirMagic {
		r.fail("bad magic")
	}
	flags := r.bytes(1)
	d := &directory{vecs: make(map[string]entry), shared: make(map[int64]bool)}
	if r.err == nil {
		if flags[0]&^flagCompress != 0 {
			r.fail("unknown flags %#x", flags[0])
		}
		d.compress = flags[0] == flagCompress
	}
	d.pages = int64(r.uint("page count", math.MaxInt64/storage.PageSize))
	// Every vector takes at least 5 bytes and every extent 6, which bounds
	// what a hostile count can make us allocate.
	nvec := int(r.uint("vector count", uint64(len(r.b)/5)))
	type placed struct {
		Extent
		vec int
	}
	var all []placed
	prev := ""
	for i := 0; i < nvec && r.err == nil; i++ {
		p := int(r.uint("name prefix", uint64(len(prev))))
		name := prev[:p] + string(r.bytes(int(r.uint("name length", uint64(len(r.b))))))
		if r.err == nil && i > 0 && name <= prev {
			r.fail("vector %q out of order after %q", name, prev)
		}
		e := entry{
			count: int64(r.uint("count", math.MaxInt64)),
			bytes: int64(r.uint("value bytes", math.MaxInt64)),
		}
		next := int(r.uint("extent count", uint64(len(r.b)/6)))
		if r.err == nil && next > 0 {
			e.ext = make([]Extent, next)
		}
		var pos int64
		for j := 0; j < next && r.err == nil; j++ {
			x := Extent{
				Page:  int64(r.uint("extent page", uint64(max(d.pages-1, 0)))),
				Off:   int(r.uint("extent offset", pageData-1)),
				Len:   int(r.uint("extent length", pageData)),
				First: int64(r.uint("extent position", math.MaxInt64)),
				N:     int(r.uint("extent records", pageData)),
			}
			if codec := r.bytes(1); r.err == nil {
				x.Codec = codec[0]
			}
			switch {
			case r.err != nil:
			case x.Page >= d.pages || x.Off+x.Len > pageData || x.Len == 0:
				r.fail("vector %q: extent %d (page %d, bytes %d+%d) outside the committed pages", name, j, x.Page, x.Off, x.Len)
			case x.N == 0 || x.Codec > codecDeflate || x.Codec == codecRaw && x.Len < x.N:
				r.fail("vector %q: extent %d holds %d records in %d bytes with codec %d", name, j, x.N, x.Len, x.Codec)
			case x.First != pos:
				r.fail("vector %q: extent %d starts at position %d, want %d", name, j, x.First, pos)
			}
			pos = x.end()
			e.ext[j] = x
			all = append(all, placed{x, i})
		}
		if r.err == nil && pos != e.count {
			r.fail("vector %q: extents hold %d records, count is %d", name, pos, e.count)
		}
		d.vecs[name] = e
		prev = name
	}
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Page != all[j].Page {
			return all[i].Page < all[j].Page
		}
		return all[i].Off < all[j].Off
	})
	for i := 1; i < len(all); i++ {
		a, b := all[i-1], all[i]
		if a.Page != b.Page {
			continue
		}
		if a.Off+a.Len > b.Off {
			return nil, fmt.Errorf("vector: directory: extents overlap on page %d at byte %d: %w", b.Page, b.Off, storage.ErrCorrupt)
		}
		if a.vec != b.vec {
			d.shared[b.Page] = true
		}
	}
	return d, nil
}
