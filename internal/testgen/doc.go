// Package testgen generates random XML documents and random XQ queries
// for differential testing: the graph-reduction engine (internal/core)
// must agree with the decompress-evaluate-revectorize baseline
// (internal/naive) on every (document, query) pair. Both generators are
// deterministic functions of the *rand.Rand they are handed, so a single
// seed reproduces a failing pair exactly.
package testgen

import (
	"math/rand"

	"vxml/internal/xmlmodel"
)

// DocConfig tunes the random document generator. The zero value is not
// usable; start from DefaultDocConfig.
type DocConfig struct {
	// RootTag names the document element.
	RootTag string
	// Tags is the element alphabet below the root. Small alphabets force
	// tag collisions across levels, which exercises descendant-axis
	// grouping and wildcard expansion over many classes.
	Tags []string
	// Values is the text alphabet for leaves. Including numeric strings
	// exercises the ordered comparison operators.
	Values []string
	// MaxDepth bounds element nesting below the root.
	MaxDepth int
	// MaxGroups bounds the number of sibling groups per element.
	MaxGroups int
	// MaxRun bounds the length of a run of consecutive same-tag siblings
	// inside one group. Runs longer than 1 are what the vectorizer
	// run-compresses, so MaxRun > 1 is essential for stressing the
	// engine's run arithmetic.
	MaxRun int
	// LeafBias is the percent chance (0-100) that an element becomes a
	// text leaf rather than recursing, on top of the hard MaxDepth stop.
	LeafBias int
}

// DefaultDocConfig returns the configuration used by the differential
// suite: a 4-tag alphabet, depth 4, fanout up to 3 groups of up to 3
// repeated siblings.
func DefaultDocConfig() DocConfig {
	return DocConfig{
		RootTag:   "root",
		Tags:      []string{"a", "b", "c", "d"},
		Values:    []string{"x", "y", "z", "7", "10", "40"},
		MaxDepth:  4,
		MaxGroups: 3,
		MaxRun:    3,
		LeafBias:  40,
	}
}

// WideDocConfig returns the configuration of the differential suite's
// wide slice: a 12-tag alphabet, depth 6 and runs of up to 4 siblings, so
// one element class has many descendant text classes while each instance
// reaches few of them — the shape result construction's top-down class
// walk prunes, with runs for it to copy at once.
func WideDocConfig() DocConfig {
	cfg := DefaultDocConfig()
	cfg.Tags = wideTags
	cfg.MaxDepth = 6
	cfg.MaxRun = 4
	cfg.LeafBias = 50
	return cfg
}

var wideTags = []string{"a", "b", "c", "d", "e", "f", "g", "h", "i", "j", "k", "l"}

// DescendantDocConfig returns the configuration of the differential
// suite's descendant slice: deep, irregular nesting over a 3-tag
// alphabet, so one '//t' step reaches dozens of path classes, with runs
// of same-tag siblings beside matches scattered through the tree.
func DescendantDocConfig() DocConfig {
	cfg := DefaultDocConfig()
	cfg.Tags = descTags
	cfg.MaxDepth = 6
	cfg.MaxRun = 2
	cfg.LeafBias = 35
	return cfg
}

var descTags = []string{"a", "b", "c"}

// CrossDocConfig returns the configuration of the differential suite's
// cross-table slice: two levels below the root over a 2-tag, 3-value
// alphabet, up to 4 groups of up to 4 siblings, the root's children
// mostly holding runs of text leaves: a binding below the root has
// several instances, the values one step below two bindings are often
// equal, and one instance often holds a value several times.
func CrossDocConfig() DocConfig {
	cfg := DefaultDocConfig()
	cfg.Tags = crossTags
	cfg.Values = crossValues
	cfg.MaxDepth = 2
	cfg.MaxGroups = 4
	cfg.MaxRun = 4
	cfg.LeafBias = 20
	return cfg
}

var (
	crossTags   = []string{"a", "b"}
	crossValues = []string{"x", "7", "10"}
)

// Doc generates one random document. Sibling groups repeat a single tag
// for a random run length, so consecutive identical-class siblings (the
// run-compressible case) occur frequently; within a run each element is
// filled independently, so runs mix leaves and subtrees of the same tag.
func Doc(r *rand.Rand, cfg DocConfig, syms *xmlmodel.Symbols) *xmlmodel.Node {
	root := xmlmodel.NewElem(syms.Intern(cfg.RootTag))
	var fill func(n *xmlmodel.Node, depth int)
	fill = func(n *xmlmodel.Node, depth int) {
		groups := 1 + r.Intn(cfg.MaxGroups)
		if depth == 0 {
			// The root always gets at least two groups so queries have
			// something to chew on.
			groups = 2 + r.Intn(cfg.MaxGroups)
		}
		for g := 0; g < groups; g++ {
			tag := syms.Intern(cfg.Tags[r.Intn(len(cfg.Tags))])
			run := 1 + r.Intn(cfg.MaxRun)
			for i := 0; i < run; i++ {
				el := xmlmodel.NewElem(tag)
				if depth+1 >= cfg.MaxDepth || r.Intn(100) < cfg.LeafBias {
					el.Append(xmlmodel.NewText(cfg.Values[r.Intn(len(cfg.Values))]))
				} else {
					fill(el, depth+1)
				}
				n.Append(el)
			}
		}
	}
	fill(root, 0)
	return root
}
