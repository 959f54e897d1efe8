package vectorize

import (
	"fmt"
	"io"

	"vxml/internal/skeleton"
	"vxml/internal/vector"
	"vxml/internal/xmlmodel"
)

// Reconstruct replays the original document from its vectorized
// representation as an event stream to h, in linear time in the output
// (Prop. 2.2): a depth-first traversal of the compressed skeleton keeps a
// cursor into each data vector and emits the next value at each '#'.
func Reconstruct(skel *skeleton.Skeleton, cls *skeleton.Classes, vecs vector.Set, h xmlmodel.Handler) error {
	cursors := make(map[skeleton.ClassID]*vecCursor)
	// classStack tracks the class of each open element.
	classStack := make([]skeleton.ClassID, 0, 32)
	depth := 0
	enter := func(n skeleton.NodeID) error {
		if skel.IsText(n) {
			var id skeleton.ClassID
			if depth == 0 {
				return fmt.Errorf("vectorize: text marker at root")
			}
			id = cls.Child(classStack[len(classStack)-1], skeleton.TextStep)
			if id == skeleton.NoClass {
				return fmt.Errorf("vectorize: no text class under %s", cls.Path(classStack[len(classStack)-1]))
			}
			cur, ok := cursors[id]
			if !ok {
				v, err := vecs.Vector(cls.VectorName(id))
				if err != nil {
					return err
				}
				cur = &vecCursor{v: v}
				if m, ok := v.(*vector.Mem); ok {
					cur.buf = m.Values // the values as Mem holds them: no copies
				}
				cursors[id] = cur
			}
			val, err := cur.next()
			if err != nil {
				return err
			}
			return h.Event(xmlmodel.Event{Kind: xmlmodel.Text, Text: val})
		}
		var id skeleton.ClassID
		if depth == 0 {
			id = cls.Root()
		} else {
			id = cls.Child(classStack[len(classStack)-1], skel.Tag(n))
		}
		if id == skeleton.NoClass {
			return fmt.Errorf("vectorize: skeleton/classes mismatch at depth %d", depth)
		}
		classStack = append(classStack, id)
		depth++
		return h.Event(xmlmodel.Event{Kind: xmlmodel.StartElement, Tag: skel.Tag(n)})
	}
	leave := func(n skeleton.NodeID) error {
		if skel.IsText(n) {
			return nil
		}
		classStack = classStack[:len(classStack)-1]
		depth--
		return h.Event(xmlmodel.Event{Kind: xmlmodel.EndElement, Tag: skel.Tag(n)})
	}
	return skel.Walk(enter, leave)
}

// ReconstructXML writes the document as XML text to w.
func ReconstructXML(skel *skeleton.Skeleton, cls *skeleton.Classes, vecs vector.Set, syms *xmlmodel.Symbols, w io.Writer) error {
	s := xmlmodel.NewSerializer(w, syms)
	if err := Reconstruct(skel, cls, vecs, s); err != nil {
		return err
	}
	return s.Flush()
}

// ReconstructTree materializes the document as an in-memory tree.
func ReconstructTree(skel *skeleton.Skeleton, cls *skeleton.Classes, vecs vector.Set) (*xmlmodel.Node, error) {
	var b xmlmodel.TreeBuilder
	if err := Reconstruct(skel, cls, vecs, &b); err != nil {
		return nil, err
	}
	return b.Root, nil
}

// vecCursor streams one vector sequentially with chunked prefetch, so the
// reconstruction's many small reads amortize into page-sized scans. Over
// an in-memory vector its buffer is the vector's own Values from the
// start, only ever read: the vector's length bounds every read, so that
// buffer is never refilled.
type vecCursor struct {
	v        vector.Vector
	pos      int64
	buf      []string
	bufStart int64
}

const cursorChunk = 256

func (c *vecCursor) next() (string, error) {
	if c.pos < c.bufStart || c.pos >= c.bufStart+int64(len(c.buf)) {
		n := int64(cursorChunk)
		if rem := c.v.Len() - c.pos; rem < n {
			n = rem
		}
		if n <= 0 {
			return "", fmt.Errorf("vectorize: vector exhausted at %d/%d", c.pos, c.v.Len())
		}
		c.buf = c.buf[:0]
		err := c.v.Scan(c.pos, n, func(_ int64, val []byte) error {
			c.buf = append(c.buf, string(val))
			return nil
		})
		if err != nil {
			return "", err
		}
		c.bufStart = c.pos
	}
	val := c.buf[c.pos-c.bufStart]
	c.pos++
	return val, nil
}
