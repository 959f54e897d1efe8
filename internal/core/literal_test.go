package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"vxml/internal/vectorize"
	"vxml/internal/xmlmodel"
)

// resultWith is the served Result of an answer holding one text value
// and one attribute value, each s.
func resultWith(t testing.TB, s string) *Result {
	syms := xmlmodel.NewSymbols()
	v := xmlmodel.NewElem(syms.Intern("v"),
		xmlmodel.NewElem(syms.Intern("@a"), xmlmodel.NewText(s)),
		xmlmodel.NewText(s))
	mem, err := vectorize.FromTree(xmlmodel.NewElem(syms.Intern("result"), v), syms)
	if err != nil {
		t.Fatal(err)
	}
	return &Result{Repo: mem}
}

// FuzzResultLiteral: for any value text, a Result's wire form is exactly
// json.Marshal of its XML, and building it leaves the XML memo unbuilt.
func FuzzResultLiteral(f *testing.F) {
	for _, s := range []string{
		"",
		"plain text",
		`<a href="x&amp;y">1 &lt; 2</a>`,
		"\x00\x01\x1f\x7f\b\f\n\r\t",
		`back\slash "quoted"`,
		"\xe2\x80\xa8 and \xe2\x80\xa9",
		"\xff\x80\xc0\xaf",
		"cut\xe2\x82",
		"\xe2\x82\xac\xf0\x9d\x84\x9e\xc3\xa9",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		r := resultWith(t, s)
		lit, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if r.xml != "" {
			t.Fatal("JSON built the XML memo as well")
		}
		if again, _ := r.JSON(); &again[0] != &lit[0] {
			t.Fatal("JSON is not memoized")
		}
		xml, err := r.XML()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(xml)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(lit, want) {
			t.Errorf("value %q: literal\n %q\nwant json.Marshal of the XML\n %q", s, lit, want)
		}
	})
}
