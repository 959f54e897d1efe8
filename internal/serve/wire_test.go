package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// referenceDecode is decodeQueryRequest's contract for a JSON body,
// written with encoding/json alone.
func referenceDecode(body []byte) (QueryRequest, error) {
	var req QueryRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return QueryRequest{}, fmt.Errorf("bad JSON body: %w", err)
	}
	if strings.TrimSpace(req.Query) == "" {
		return QueryRequest{}, errors.New("empty query")
	}
	return req, nil
}

// FuzzDecodeQueryRequest: for any body that opens as a JSON object,
// decodeQueryRequest returns what json.Unmarshal decodes, or exactly its
// error, whether the scanner took the body or declined it.
func FuzzDecodeQueryRequest(f *testing.F) {
	for _, s := range []string{
		`{"query":"for $t in /a where $t/p \u003e 40 return $t"}`,
		`{"query":"a \u0026 b","timeout_ms":250,"trace":true,"check":false}`,
		` {"check":true , "query" : "\/\b\f\n\r\t\"\\ \u00e9\u20ac" } `,
		`{"query":"\ud834\udd1e pair"}`,
		`{"query":"\ud800 lone"}`,
		`{"QUERY":"x"}`,
		`{"query":"x","query":"y"}`,
		`{"query":"x","timeout_ms":1e3}`,
		`{"query":"x","timeout_ms":-0}`,
		`{"query":"x","timeout_ms":01}`,
		`{"query":"x","timeout_ms":123456789012345678901}`,
		`{"query":null}`,
		`{"query":"x","trace":null}`,
		"{\"query\":\"nul \x00\"}",
		`{"query":"nul \u0000"}`,
		"{\"query\":\"bad \xff utf8\"}",
		"{\"query\":\"snow \xe2\x98\x83\"}",
		`{"query":"x"} trailing`,
		`{"query":"x",}`,
		`{"query":"x","extra":1}`,
		`{"query":" "}`,
		`{}`,
		`{`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if trimmed := bytes.TrimSpace(body); len(trimmed) == 0 || trimmed[0] != '{' {
			return // a plain-text query, not JSON
		}
		want, wantErr := referenceDecode(body)
		got, _, err := decodeQueryRequest(httptest.NewRequest(http.MethodPost, "/query", bytes.NewReader(body)))
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || got != want {
			t.Fatalf("body %q:\n got %+v, %v\nwant %+v, %v", body, got, err, want, wantErr)
		}
	})
}

// TestScanQueryRequestTakesMarshalledBodies: every body json.Marshal
// writes for a QueryRequest, escapes included, is decoded by the scanner
// itself rather than handed to encoding/json.
func TestScanQueryRequestTakesMarshalledBodies(t *testing.T) {
	for _, want := range []QueryRequest{
		{Query: `for $t in /site/closed_auctions/closed_auction where $t/price >= 40 return $t/price`},
		{Query: "a < b & \"c\" \\ d\n\t\x00\x1f\x7f", TimeoutMS: 250, Trace: true, Check: true},
		{Query: "x", TimeoutMS: 999999999999999999},
	} {
		body, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := scanQueryRequest(body); !ok || got != want {
			t.Errorf("scan of %s = %+v, %v; want %+v, true", body, got, ok, want)
		}
	}
}

// FuzzAppendJSONString: appendJSONString writes exactly what json.Marshal
// writes for the same string, after whatever the buffer held.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{
		"", "plain", "<a href=\"x&amp;y\">1 &gt; 0</a>", "\u003e\u0026",
		"\x00\x01\x08\x0c\x1f\x7f\b\f\n\r\t", `back\slash "quoted"`,
		"\u2028 and \u2029", "\U0001d11e pair", "\xed\xa0\x80 surrogate",
		"\xff\x80\xc0\xaf", "cut\xe2\x82", "QUERY", `{"query":"x","query":"y"}`, "1e3", "null",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got := appendJSONString([]byte("prefix"), s)
		if !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("appendJSONString(%q) = %s, want prefix%s", s, got, want)
		}
	})
}
