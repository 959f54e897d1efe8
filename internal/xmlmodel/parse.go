package xmlmodel

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
)

// Parser streams XML from an io.Reader as Events. Tag names are interned in
// the supplied symbol table. Attributes become '@'-prefixed child elements;
// whitespace-only character data between elements is dropped (it is
// formatting, not content), matching the paper's node-labeled tree model.
type Parser struct {
	dec  *xml.Decoder
	syms *Symbols
}

// NewParser returns a parser reading from r, interning tags into syms.
func NewParser(r io.Reader, syms *Symbols) *Parser {
	dec := xml.NewDecoder(r)
	// Scientific datasets occasionally carry latin-1 headers; we only accept
	// UTF-8 here and reject other encodings explicitly.
	dec.CharsetReader = func(charset string, input io.Reader) (io.Reader, error) {
		if strings.EqualFold(charset, "utf-8") || charset == "" {
			return input, nil
		}
		return nil, fmt.Errorf("xmlmodel: unsupported charset %q", charset)
	}
	return &Parser{dec: dec, syms: syms}
}

// Run parses the whole document, delivering events to h. It returns an
// error for malformed XML or if h returns an error.
func (p *Parser) Run(h Handler) error {
	depth := 0
	seenRoot := false
	for {
		tok, err := p.dec.Token()
		if err == io.EOF {
			if depth != 0 || !seenRoot {
				return fmt.Errorf("xmlmodel: unexpected EOF (depth %d)", depth)
			}
			return nil
		}
		if err != nil {
			return fmt.Errorf("xmlmodel: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if depth == 0 && seenRoot {
				return fmt.Errorf("xmlmodel: multiple document roots")
			}
			seenRoot = true
			depth++
			tag, err := localName(t.Name)
			if err != nil {
				return err
			}
			if err := h.Event(Event{Kind: StartElement, Tag: p.syms.Intern(tag)}); err != nil {
				return err
			}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				name, err := localName(a.Name)
				if err != nil {
					return err
				}
				at := p.syms.Intern("@" + name)
				if err := h.Event(Event{Kind: StartElement, Tag: at}); err != nil {
					return err
				}
				if err := h.Event(Event{Kind: Text, Text: a.Value}); err != nil {
					return err
				}
				if err := h.Event(Event{Kind: EndElement, Tag: at}); err != nil {
					return err
				}
			}
		case xml.EndElement:
			depth--
			if err := h.Event(Event{Kind: EndElement}); err != nil {
				return err
			}
		case xml.CharData:
			if depth == 0 {
				continue // prolog/epilog whitespace
			}
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			if err := h.Event(Event{Kind: Text, Text: s}); err != nil {
				return err
			}
		case xml.Comment, xml.ProcInst, xml.Directive:
			// Not part of the data model.
		}
	}
}

// localName returns the name the data model keeps for n: its local part.
// The decoder checks a prefixed name only as a whole, so a local part that
// cannot start a name on its own ("0" in "a:0") is rejected here; it would
// not parse back.
func localName(n xml.Name) (string, error) {
	if n.Space != "" {
		if _, err := xml.NewDecoder(strings.NewReader("<" + n.Local + "/>")).Token(); err != nil {
			return "", fmt.Errorf("xmlmodel: parse: invalid local name %q", n.Local)
		}
	}
	return n.Local, nil
}

// Parse reads a complete document from r into a tree.
func Parse(r io.Reader, syms *Symbols) (*Node, error) {
	p := NewParser(r, syms)
	var b TreeBuilder
	if err := p.Run(&b); err != nil {
		return nil, err
	}
	if b.Root == nil {
		return nil, fmt.Errorf("xmlmodel: empty document")
	}
	return b.Root, nil
}

// ParseString parses a complete document from a string.
func ParseString(s string, syms *Symbols) (*Node, error) {
	return Parse(strings.NewReader(s), syms)
}
