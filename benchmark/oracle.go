package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"

	"vxml/internal/dom"
	"vxml/internal/xmlmodel"
	"vxml/internal/xq"
)

// goldenJSON holds reference digests computed ahead of time by
// -write-golden. The reference interpreter is nested loops: at standard
// size it needs minutes for the join queries (MQ2: 147 s, SQ3: 108 s on
// the reference host), which no run can afford, so their answers are
// computed once and committed. Keys are "<dataset spec> | <query>"; a
// query without a key is answered by running the interpreter.
//
//go:embed golden.json
var goldenJSON []byte

// oracle answers "what should this query return on this dataset" from
// internal/dom, the repository's reference interpreter, independently of
// the engine under test.
type oracle struct {
	golden map[string]string
	trees  map[string]*domTree // by dataset spec, parsed on first use
	// computed collects every digest the interpreter produced in this
	// process, for -write-golden.
	computed map[string]string
}

type domTree struct {
	root *xmlmodel.Node
	syms *xmlmodel.Symbols
}

func newOracle() (*oracle, error) {
	o := &oracle{trees: map[string]*domTree{}, computed: map[string]string{}}
	if err := json.Unmarshal(goldenJSON, &o.golden); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return o, nil
}

func goldenKey(d dataset, query string) string {
	return d.Spec + " | " + strings.Join(strings.Fields(query), " ")
}

// check compares a result XML with the reference answer for query on d
// (whose XML is under dir). The comparison is on the multiset of the
// result root's children: the engine orders join results by class, the
// interpreter by binding.
func (o *oracle) check(d dataset, dir, query, resultXML string) error {
	got, err := canonicalDigest(resultXML)
	if err != nil {
		return fmt.Errorf("result does not parse: %w", err)
	}
	key := goldenKey(d, query)
	want, ok := o.golden[key]
	if !ok {
		want, err = o.interpret(d, dir, query)
		if err != nil {
			return err
		}
		o.computed[key] = want
	}
	if got != want {
		return fmt.Errorf("result differs from the reference interpreter's on %s (if the generator changed, refresh golden.json with -write-golden)", d.Spec)
	}
	return nil
}

// interpret runs the reference interpreter and digests its answer.
func (o *oracle) interpret(d dataset, dir, query string) (string, error) {
	t, ok := o.trees[d.Spec]
	if !ok {
		xmlPath, _ := d.paths(dir)
		f, err := os.Open(xmlPath)
		if err != nil {
			return "", err
		}
		syms := xmlmodel.NewSymbols()
		root, err := xmlmodel.Parse(f, syms)
		f.Close()
		if err != nil {
			return "", fmt.Errorf("reference parse of %s: %w", d.Spec, err)
		}
		t = &domTree{root, syms}
		o.trees[d.Spec] = t
	}
	parsed, err := xq.Parse(query)
	if err != nil {
		return "", err
	}
	out, err := dom.NewEvaluator(t.root, t.syms).Eval(parsed)
	if err != nil {
		return "", fmt.Errorf("reference interpreter: %w", err)
	}
	return digestKids(out, t.syms)
}

// canonicalDigest digests a result document order-insensitively.
func canonicalDigest(doc string) (string, error) {
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		return "", err
	}
	return digestKids(root, syms)
}

func digestKids(root *xmlmodel.Node, syms *xmlmodel.Symbols) (string, error) {
	// One serializer for all children: a fresh one per child would
	// allocate its 64 KiB buffer a few hundred times per result.
	var buf bytes.Buffer
	ser := xmlmodel.NewSerializer(&buf, syms)
	ends := make([]int, len(root.Kids))
	for i, k := range root.Kids {
		if err := xmlmodel.EmitTree(k, ser); err != nil {
			return "", err
		}
		if err := ser.Flush(); err != nil {
			return "", err
		}
		ends[i] = buf.Len()
	}
	parts := make([]string, len(root.Kids))
	from := 0
	for i, to := range ends {
		parts[i] = string(buf.Bytes()[from:to])
		from = to
	}
	sort.Strings(parts)
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// writeGolden writes the digests the interpreter produced in this process
// as the golden file at path.
func (o *oracle) writeGolden(path string) error {
	data, err := json.MarshalIndent(o.computed, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
