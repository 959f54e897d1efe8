package xmlmodel

import (
	"bufio"
	"io"
	"strings"
)

// Serializer writes an Event stream back out as XML text. '@'-prefixed
// child elements are rendered as attributes of their parent when they occur
// before any other content, restoring the surface form the Parser consumed.
//
// Use it as the Handler for EmitTree or for the vectorize.Reconstructor.
type Serializer struct {
	w    *bufio.Writer
	syms *Symbols

	// pending start tag not yet closed with '>', so attributes can attach.
	openTag   bool
	attrDepth int // >0 while inside an '@' element
	attrBuf   strings.Builder
	stack     []Sym
	hadChild  []bool // per open element: emitted non-attribute content?
	err       error
}

// NewSerializer returns a serializer writing to w.
func NewSerializer(w io.Writer, syms *Symbols) *Serializer {
	return &Serializer{w: bufio.NewWriterSize(w, 64<<10), syms: syms}
}

// Event implements Handler.
func (s *Serializer) Event(ev Event) error {
	if s.err != nil {
		return s.err
	}
	switch ev.Kind {
	case StartElement:
		name := s.syms.Name(ev.Tag)
		if s.attrDepth > 0 {
			s.fail("nested element inside attribute")
			return s.err
		}
		if strings.HasPrefix(name, "@") && s.openTag {
			// Attribute of the currently open element.
			s.attrDepth = 1
			s.attrBuf.Reset()
			s.writeString(" ", name[1:], `="`)
			s.stack = append(s.stack, ev.Tag)
			return s.err
		}
		s.closeOpenTag()
		s.markChild()
		s.writeString("<", name)
		s.openTag = true
		s.stack = append(s.stack, ev.Tag)
		s.hadChild = append(s.hadChild, false)
	case EndElement:
		if len(s.stack) == 0 {
			s.fail("unbalanced end element")
			return s.err
		}
		top := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		if s.attrDepth > 0 {
			s.attrDepth = 0
			s.writeString(`"`)
			return s.err
		}
		name := s.syms.Name(top)
		if s.openTag && !s.hadChild[len(s.hadChild)-1] {
			s.writeString("/>")
			s.openTag = false
		} else {
			s.closeOpenTag()
			s.writeString("</", name, ">")
		}
		s.hadChild = s.hadChild[:len(s.hadChild)-1]
	case Text:
		if s.attrDepth > 0 {
			s.writeString(escapeAttr(ev.Text))
			return s.err
		}
		s.closeOpenTag()
		s.markChild()
		s.writeString(escapeText(ev.Text))
	}
	return s.err
}

// Flush writes any buffered output.
func (s *Serializer) Flush() error {
	if s.err != nil {
		return s.err
	}
	return s.w.Flush()
}

func (s *Serializer) closeOpenTag() {
	if s.openTag {
		s.writeString(">")
		s.openTag = false
	}
}

func (s *Serializer) markChild() {
	if len(s.hadChild) > 0 {
		s.hadChild[len(s.hadChild)-1] = true
	}
}

// writeString writes the parts one after another: no concatenated string
// per tag.
func (s *Serializer) writeString(parts ...string) {
	for _, str := range parts {
		if s.err == nil {
			_, s.err = s.w.WriteString(str)
		}
	}
}

func (s *Serializer) fail(msg string) {
	if s.err == nil {
		s.err = &serializeError{msg}
	}
}

type serializeError struct{ msg string }

func (e *serializeError) Error() string { return "xmlmodel: serialize: " + e.msg }

var textEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
var attrEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

func escapeText(s string) string {
	if !strings.ContainsAny(s, "&<>") {
		return s
	}
	return textEscaper.Replace(s)
}

func escapeAttr(s string) string {
	if !strings.ContainsAny(s, `&<>"`) {
		return s
	}
	return attrEscaper.Replace(s)
}

// WriteTree serializes the tree rooted at n to w as XML text.
func WriteTree(w io.Writer, n *Node, syms *Symbols) error {
	s := NewSerializer(w, syms)
	if err := EmitTree(n, s); err != nil {
		return err
	}
	return s.Flush()
}

// TreeString returns the XML text of the tree rooted at n.
func TreeString(n *Node, syms *Symbols) string {
	var b strings.Builder
	if err := WriteTree(&b, n, syms); err != nil {
		return "<!-- serialize error: " + err.Error() + " -->"
	}
	return b.String()
}
