package skeleton

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"vxml/internal/datagen"
	"vxml/internal/xmlmodel"
)

func TestEncodeDecodeBib(t *testing.T) {
	skel, _, syms := buildBib(t)
	var buf bytes.Buffer
	if err := Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	syms2 := xmlmodel.NewSymbols()
	back, err := Decode(&buf, syms2)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != skel.NumNodes() || back.NumEdges() != skel.NumEdges() {
		t.Errorf("decoded %d/%d, want %d/%d", back.NumNodes(), back.NumEdges(), skel.NumNodes(), skel.NumEdges())
	}
	if back.ExpandedSize() != skel.ExpandedSize() {
		t.Errorf("expanded %d, want %d", back.ExpandedSize(), skel.ExpandedSize())
	}
	if back.String(syms2) != skel.String(syms) {
		t.Errorf("decoded skeleton renders differently:\n%s\nvs\n%s", back.String(syms2), skel.String(syms))
	}
}

// TestDecodeIntoPopulatedSymbols: decoding remaps tags when the target
// symbol table already holds different ids.
func TestDecodeIntoPopulatedSymbols(t *testing.T) {
	skel, _, syms := buildBib(t)
	var buf bytes.Buffer
	if err := Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	syms2 := xmlmodel.NewSymbols()
	// Pre-intern names in a different order.
	syms2.Intern("zzz")
	syms2.Intern("title")
	syms2.Intern("bib")
	back, err := Decode(&buf, syms2)
	if err != nil {
		t.Fatal(err)
	}
	if got := syms2.Name(back.Tag(back.Root)); got != "bib" {
		t.Errorf("root tag = %q", got)
	}
	if back.String(syms2) != skel.String(syms) {
		t.Error("remapped skeleton renders differently")
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	skel, _, syms := buildBib(t)
	var buf bytes.Buffer
	if err := Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	cases := [][]byte{
		{},
		[]byte("XXXX"),
		good[:4],
		good[:len(good)/2],
	}
	// Flip a byte in the node section.
	bad := append([]byte{}, good...)
	bad[len(bad)-1] ^= 0x7f
	cases = append(cases, bad)
	// Hostile counts: each is rejected before anything is allocated for
	// it, since the input holds too few bytes for that many records.
	hostile := func(counts ...int64) []byte {
		b := []byte(skelMagic)
		for _, v := range counts {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	cases = append(cases,
		hostile(-3),       // symbol count
		hostile(1<<62),    // symbol count
		hostile(1, 1<<40), // name length
		hostile(0, 1<<31), // node count
		hostile(0, 1<<62), // node count
	)
	// One symbol "a", then two nodes: the text marker, and an "a" claiming
	// 2^31 edges.
	edges := append(hostile(1, 1), 'a')
	for _, v := range []int64{2, -1, 1, 1 << 31} {
		edges = binary.AppendVarint(edges, v)
	}
	cases = append(cases, edges)
	for i, data := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Decode(bytes.NewReader(data), xmlmodel.NewSymbols())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("case %d: corrupt decode succeeded", i)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Errorf("case %d: decoding %d corrupt bytes allocated %d bytes", i, len(data), n)
		}
	}
}

// TestDecodeRejectsOverflowingCounts: a skeleton whose document would have
// more nodes than an int64 counts is corrupt. Accepting it would wrap
// occurrence counts around, here /a/b/# to 0.
func TestDecodeRejectsOverflowingCounts(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	b := NewBuilder()
	bNode := b.Make(syms.Intern("b"), []Edge{{Child: b.Text(), Count: 1 << 40}})
	skel := b.Finish(b.Make(syms.Intern("a"), []Edge{{Child: bNode, Count: 1 << 40}}))
	var buf bytes.Buffer
	if err := Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(&buf, xmlmodel.NewSymbols()); err == nil || !strings.Contains(err.Error(), "expands to more than") {
		t.Fatalf("decoding a skeleton of 2^80 text nodes: err = %v", err)
	}

	// Below the limit, every count is exact.
	b = NewBuilder()
	bNode = b.Make(syms.Intern("b"), []Edge{{Child: b.Text(), Count: 1 << 31}})
	skel = b.Finish(b.Make(syms.Intern("a"), []Edge{{Child: bNode, Count: 1 << 31}}))
	buf.Reset()
	if err := Encode(&buf, skel, syms); err != nil {
		t.Fatal(err)
	}
	syms2 := xmlmodel.NewSymbols()
	back, err := Decode(&buf, syms2)
	if err != nil {
		t.Fatal(err)
	}
	cls := NewClasses(back, syms2)
	if n := cls.Count(cls.Resolve("/a/b/#")); n != 1<<62 {
		t.Errorf("/a/b/# count = %d, want 2^62", n)
	}
	if n := back.ExpandedSize(); n != 1+1<<31+1<<62 {
		t.Errorf("ExpandedSize = %d, want 1+2^31+2^62", n)
	}
}

// encodeDoc parses an XML document and returns its encoded skeleton.
func encodeDoc(tb testing.TB, doc string) []byte {
	tb.Helper()
	syms := xmlmodel.NewSymbols()
	root, err := xmlmodel.ParseString(doc, syms)
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, FromTree(root, NewBuilder()), syms); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzSkeletonDecode: Decode never panics on hostile bytes. What it
// accepts re-encodes to a skeleton that decodes equal, and its class
// registry builds.
func FuzzSkeletonDecode(f *testing.F) {
	var tb strings.Builder
	if err := (datagen.TreeBank{Sentences: 12, MaxDepth: 4}).Generate(&tb); err != nil {
		f.Fatal(err)
	}
	f.Add(encodeDoc(f, bibXML))
	f.Add(encodeDoc(f, tb.String()))
	f.Fuzz(func(t *testing.T, data []byte) {
		syms := xmlmodel.NewSymbols()
		skel, err := Decode(bytes.NewReader(data), syms)
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := Encode(&enc, skel, syms); err != nil {
			t.Fatalf("re-encoding a decoded skeleton: %v", err)
		}
		syms2 := xmlmodel.NewSymbols()
		back, err := Decode(bytes.NewReader(enc.Bytes()), syms2)
		if err != nil {
			t.Fatalf("decoding a re-encoded skeleton: %v", err)
		}
		if back.String(syms2) != skel.String(syms) || back.NumNodes() != skel.NumNodes() ||
			back.NumEdges() != skel.NumEdges() || back.ExpandedSize() != skel.ExpandedSize() {
			t.Fatalf("round trip changed the skeleton:\n%s\nvs\n%s", skel.String(syms), back.String(syms2))
		}
		// A document has at most as many classes as nodes; keep the
		// registry small enough to build in a fuzz iteration. The last
		// class is one of the deepest, so its path walks the longest
		// parent chain.
		if skel.ExpandedSize() > 1<<16 {
			return
		}
		cls := NewClasses(skel, syms)
		cls.Path(ClassID(cls.NumClasses() - 1))
	})
}

// TestPropertyEncodeDecodeIdentity: round trip for random trees.
func TestPropertyEncodeDecodeIdentity(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		skel := FromTree(tree, NewBuilder())
		var buf bytes.Buffer
		if err := Encode(&buf, skel, syms); err != nil {
			return false
		}
		back, err := Decode(&buf, xmlmodel.NewSymbols())
		if err != nil {
			return false
		}
		return back.NumNodes() == skel.NumNodes() &&
			back.NumEdges() == skel.NumEdges() &&
			back.ExpandedSize() == skel.ExpandedSize()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNodeRunsBib(t *testing.T) {
	_, cls, _ := buildBib(t)
	art := cls.Resolve("/bib/article")
	runs := cls.NodeRuns(art)
	// Articles: one 1-author node then two 2-author nodes.
	if len(runs) != 2 || runs[0].Count != 1 || runs[1].Count != 2 {
		t.Fatalf("article NodeRuns = %+v", runs)
	}
	if runs[0].Node == runs[1].Node {
		t.Error("distinct article shapes share a node")
	}
	// A node cursor addresses instances across runs.
	if nc := NewNodeCursor(runs); nc.At(0) != runs[0].Node || nc.At(2) != runs[1].Node {
		t.Error("NodeCursor.At mismatch")
	}
}

func TestNodeCursorSeeks(t *testing.T) {
	_, cls, _ := buildBib(t)
	art := cls.Resolve("/bib/article")
	nc := NewNodeCursor(cls.NodeRuns(art))
	a2 := nc.At(2)
	a0 := nc.At(0) // backwards
	if a0 == a2 {
		t.Error("cursor seek backwards broken")
	}
	defer func() {
		if recover() == nil {
			t.Error("out-of-range At did not panic")
		}
	}()
	nc.At(99)
}

// TestPropertyNodeRunsMatchWalk: the node-run sequence agrees with a
// direct expansion walk for every class.
func TestPropertyNodeRunsMatchWalk(t *testing.T) {
	syms := xmlmodel.NewSymbols()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tree := genTree(r, syms, 0)
		skel := FromTree(tree, NewBuilder())
		cls := NewClasses(skel, syms)

		// Brute-force: walk the expanded tree recording, per class path,
		// the node sequence.
		byPath := map[string][]NodeID{}
		var stack []string
		skel.Walk(func(n NodeID) error {
			label := "#"
			if !skel.IsText(n) {
				label = syms.Name(skel.Tag(n))
			}
			stack = append(stack, label)
			p := strings.Join(stack, "/")
			byPath[p] = append(byPath[p], n)
			return nil
		}, func(n NodeID) error {
			stack = stack[:len(stack)-1]
			return nil
		})

		for id := ClassID(0); int(id) < cls.NumClasses(); id++ {
			want := byPath[strings.TrimPrefix(cls.Path(id), "/")]
			var got []NodeID
			for _, nr := range cls.NodeRuns(id) {
				for i := int64(0); i < nr.Count; i++ {
					got = append(got, nr.Node)
				}
			}
			if len(got) != len(want) {
				t.Logf("seed %d class %s: %d vs %d instances", seed, cls.Path(id), len(got), len(want))
				return false
			}
			for i := range got {
				if got[i] != want[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
