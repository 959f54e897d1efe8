package skeleton

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"vxml/internal/xmlmodel"
)

// Binary skeleton file format: magic "VXS1", then the symbol table (count,
// then length-prefixed names in Sym order), then the node table in NodeID
// order (tag varint with -1 for the text marker, edge count, then per edge
// child NodeID varint + run count varint; children always have smaller IDs
// than their parents thanks to bottom-up construction), then the root ID.

const skelMagic = "VXS1"

// Encode writes the skeleton and its symbol table to w.
func Encode(w io.Writer, s *Skeleton, syms *xmlmodel.Symbols) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(skelMagic); err != nil {
		return err
	}
	var buf []byte
	put := func(v int64) {
		buf = binary.AppendVarint(buf[:0], v)
		bw.Write(buf)
	}
	put(int64(syms.Len()))
	for i := 1; i <= syms.Len(); i++ {
		name := syms.Name(xmlmodel.Sym(i))
		put(int64(len(name)))
		bw.WriteString(name)
	}
	put(int64(s.NumNodes()))
	for n, tag := range s.tags {
		put(int64(tag)) // TextStep is the format's -1 text marker
		if tag == TextStep {
			continue
		}
		edges := s.Edges(NodeID(n))
		put(int64(len(edges)))
		for _, e := range edges {
			if int(e.Child) >= n {
				return fmt.Errorf("skeleton: encode: node %d references non-prior child %d", n, e.Child)
			}
			put(int64(e.Child))
			put(e.Count)
		}
	}
	put(int64(s.Root))
	return bw.Flush()
}

// Decode reads a skeleton written by Encode. Symbol names are re-interned
// into syms; tags are remapped accordingly, so syms need not be empty.
// Nodes decode into the skeleton's arrays, subtree sizes included. Counts
// are bounded by the bytes left, and a document of more than 2^63-1 nodes
// is rejected, which bounds every occurrence count derived from the
// skeleton.
func Decode(r io.Reader, syms *xmlmodel.Symbols) (*Skeleton, error) {
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, r); err != nil {
		return nil, fmt.Errorf("skeleton: decode: %w", err)
	}
	br := bytes.NewReader(buf.Bytes())
	magic := make([]byte, len(skelMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("skeleton: decode: %w", err)
	}
	if string(magic) != skelMagic {
		return nil, fmt.Errorf("skeleton: decode: bad magic %q", magic)
	}
	get := func() (int64, error) { return binary.ReadVarint(br) }
	// A symbol takes at least one byte, a node one and an edge two.
	nsyms, err := get()
	if err != nil {
		return nil, err
	}
	if nsyms < 0 || nsyms > int64(br.Len()) {
		return nil, fmt.Errorf("skeleton: decode: bad symbol count %d", nsyms)
	}
	remap := make([]xmlmodel.Sym, nsyms+1)
	nameBuf := make([]byte, 0, 64)
	for i := int64(1); i <= nsyms; i++ {
		ln, err := get()
		if err != nil {
			return nil, err
		}
		if ln < 0 || ln > 1<<20 {
			return nil, fmt.Errorf("skeleton: decode: bad name length %d", ln)
		}
		if int64(cap(nameBuf)) < ln {
			nameBuf = make([]byte, ln)
		}
		nameBuf = nameBuf[:ln]
		if _, err := io.ReadFull(br, nameBuf); err != nil {
			return nil, err
		}
		remap[i] = syms.Intern(string(nameBuf))
	}
	nnodes, err := get()
	if err != nil {
		return nil, err
	}
	if nnodes <= 0 || nnodes > int64(br.Len()) || nnodes > math.MaxInt32 {
		return nil, fmt.Errorf("skeleton: decode: bad node count %d", nnodes)
	}
	s := Skeleton{
		tags:  make([]xmlmodel.Sym, 0, nnodes),
		first: make([]int32, 1, nnodes+1),
		edges: make([]Edge, 0, br.Len()/2),
		size:  make([]int64, 0, nnodes),
	}
	for i := int64(0); i < nnodes; i++ {
		tag, err := get()
		if err != nil {
			return nil, err
		}
		if tag == -1 {
			s.add(TextStep)
			continue
		}
		if tag <= 0 || tag > nsyms {
			return nil, fmt.Errorf("skeleton: decode: node %d bad tag %d", i, tag)
		}
		ne, err := get()
		if err != nil {
			return nil, err
		}
		if ne < 0 || ne > int64(br.Len()/2) || int64(len(s.edges))+ne > math.MaxInt32 {
			return nil, fmt.Errorf("skeleton: decode: node %d bad edge count %d", i, ne)
		}
		for j := int64(0); j < ne; j++ {
			child, err := get()
			if err != nil {
				return nil, err
			}
			count, err := get()
			if err != nil {
				return nil, err
			}
			if child < 0 || child >= i {
				return nil, fmt.Errorf("skeleton: decode: node %d bad child %d", i, child)
			}
			if count <= 0 {
				return nil, fmt.Errorf("skeleton: decode: node %d bad count %d", i, count)
			}
			s.edges = append(s.edges, Edge{Child: NodeID(child), Count: count})
		}
		s.add(remap[tag])
	}
	if n := s.addSizes(); n >= 0 {
		return nil, fmt.Errorf("skeleton: decode: node %d expands to more than 2^63-1 nodes", n)
	}
	rootID, err := get()
	if err != nil {
		return nil, err
	}
	if rootID < 0 || rootID >= nnodes || s.IsText(NodeID(rootID)) {
		return nil, fmt.Errorf("skeleton: decode: bad root %d", rootID)
	}
	s.Root = NodeID(rootID)
	return &s, nil
}
