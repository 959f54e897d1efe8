package testgen

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
)

// QueryConfig tunes the random query generator. All percent knobs are
// 0-100. The generator only emits queries inside the planner's supported
// fragment: qualifiers appear in binding paths only (never nested, never
// in conditions or return paths), joins are equalities, and every return
// item is variable-rooted.
type QueryConfig struct {
	// RootTag must match the document generator's RootTag.
	RootTag string
	// Tags and Values are the alphabets for path steps and constants,
	// normally the same as the document's so matches actually occur.
	Tags   []string
	Values []string
	// MaxExtraBindings bounds the chained bindings after the first
	// ("for $x in ..., $v0 in $x/p, $v1 in $v0/q" — the nested-FLWR
	// shape of the paper's fragment).
	MaxExtraBindings int
	// MaxConds bounds the where-clause conjuncts.
	MaxConds int
	// DescendantPct is the per-step chance of the '//' axis.
	DescendantPct int
	// WildcardPct is the per-step chance of the '*' name.
	WildcardPct int
	// QualifierPct is the per-binding chance of a step qualifier
	// ([p] or [p op 'c']).
	QualifierPct int
	// TemplatePct is the chance the return clause is an element template
	// with {$v/p} holes instead of bare path items.
	TemplatePct int

	// The wide slice's biases (WideQueryConfig); zero leaves the general
	// generator unchanged, draw for draw.
	//
	// maxBindingSteps bounds the steps of one binding path; 0 means 2.
	maxBindingSteps int
	// subtreePct is the chance the return clause is a single subtree copy
	// of the first (shallowest) variable: a bare "$x", or "$x/t" whose
	// child step selects runs of consecutive same-tag siblings.
	subtreePct int
	// selPct is the chance a where conjunct is a selection rather than a
	// join; 0 means 65.
	selPct int
	// cross draws from the cross-table slice instead (crossQuery).
	cross bool
}

// DefaultQueryConfig returns the configuration used by the differential
// suite. Descendant and wildcard steps are frequent enough that roughly
// half the queries leave the order-preserving child-axis fragment.
func DefaultQueryConfig() QueryConfig {
	return QueryConfig{
		RootTag:          "root",
		Tags:             []string{"a", "b", "c", "d"},
		Values:           []string{"x", "y", "z", "7", "10", "40"},
		MaxExtraBindings: 2,
		MaxConds:         2,
		DescendantPct:    15,
		WildcardPct:      10,
		QualifierPct:     30,
		TemplatePct:      25,
	}
}

// WideQueryConfig returns the query configuration of the wide slice (see
// WideDocConfig): shallow bindings over the 12-tag alphabet, and mostly
// return clauses that copy whole subtrees or runs of siblings.
func WideQueryConfig() QueryConfig {
	cfg := DefaultQueryConfig()
	cfg.Tags = wideTags
	cfg.MaxExtraBindings = 1
	cfg.maxBindingSteps = 1
	cfg.subtreePct = 60
	return cfg
}

// DescendantQueryConfig returns the query configuration of the descendant
// slice (see DescendantDocConfig): several bindings, most through '//',
// joined with each other and with child-axis bindings, filtered by
// selections and qualifier existence tests, and often returning the first
// variable — the source the '//' bindings hang from.
func DescendantQueryConfig() QueryConfig {
	cfg := DefaultQueryConfig()
	cfg.Tags = descTags
	cfg.MaxExtraBindings = 2
	cfg.MaxConds = 3
	cfg.DescendantPct = 60
	cfg.WildcardPct = 5
	cfg.QualifierPct = 40
	cfg.subtreePct = 40
	cfg.selPct = 45
	return cfg
}

// CrossQueryConfig returns the query configuration of the cross-table
// slice (see CrossDocConfig): every binding is document-rooted, so each
// is its own instantiation table, and the where clause joins them across
// tables (see crossQuery).
func CrossQueryConfig() QueryConfig {
	cfg := DefaultQueryConfig()
	cfg.Tags, cfg.Values = crossTags, crossValues
	cfg.DescendantPct = 10
	cfg.WildcardPct = 5
	cfg.QualifierPct = 15
	cfg.maxBindingSteps = 1
	cfg.cross = true
	return cfg
}

// Query is one generated query.
type Query struct {
	// Src is the XQ surface syntax.
	Src string
	// Ordered reports whether the engine guarantees document-order,
	// duplicate-preserving output for this query (no '*' or '//' step
	// anywhere). Unordered queries must be compared as multisets: the
	// engine groups descendant/wildcard matches by path class, which
	// permutes siblings relative to the node-at-a-time baseline.
	Ordered bool
}

// gen carries the mutable state of one query generation.
type gen struct {
	r       *rand.Rand
	cfg     QueryConfig
	vars    []string // defined for-variables, in binding order
	ordered bool
}

func (g *gen) pct(p int) bool { return g.r.Intn(100) < p }

func (g *gen) tag() string { return g.cfg.Tags[g.r.Intn(len(g.cfg.Tags))] }

func (g *gen) value() string { return g.cfg.Values[g.r.Intn(len(g.cfg.Values))] }

func (g *gen) anyVar() string { return g.vars[g.r.Intn(len(g.vars))] }

// step renders one path step. first suppresses the descendant axis (used
// for qualifier paths, which are written without a leading axis).
func (g *gen) step(first bool) string {
	axis := "/"
	if !first && g.pct(g.cfg.DescendantPct) {
		axis = "//"
		g.ordered = false
	} else if first {
		axis = ""
	}
	name := g.tag()
	if g.pct(g.cfg.WildcardPct) {
		name = "*"
		g.ordered = false
	}
	return axis + name
}

// relPath renders a 1..n step relative path without a leading axis
// separator on the first step.
func (g *gen) relPath(n int) string {
	steps := 1 + g.r.Intn(n)
	var b strings.Builder
	for i := 0; i < steps; i++ {
		b.WriteString(g.step(i == 0))
	}
	return b.String()
}

// qual renders one qualifier: existence [p] or comparison [p op 'c'].
// Qualifier paths are kept qualifier-free (the planner rejects nesting).
func (g *gen) qual() string {
	p := g.relPath(2)
	if g.pct(50) {
		return "[" + p + "]"
	}
	ops := []string{"=", "!=", "<", "<=", ">", ">="}
	return fmt.Sprintf("[%s %s '%s']", p, ops[g.r.Intn(len(ops))], g.value())
}

// bindingPath renders the path of a for-binding: 1-2 steps, each with a
// leading axis, optionally qualified. A qualifier is only attached when no
// later step of the same binding uses the descendant axis: the planner
// compiles a qualified step into a hidden variable, and a '//' continuation
// from a hidden variable bound at nested nodes counts shared descendants
// once per ancestor, whereas the node-set semantics of a plain path (and
// of the dom baseline) counts each node once. That divergence is
// documented engine behavior, not a differential target.
func (g *gen) bindingPath() string {
	maxSteps := g.cfg.maxBindingSteps
	if maxSteps == 0 {
		maxSteps = 2
	}
	n := 1 + g.r.Intn(maxSteps)
	axes := make([]string, n)
	names := make([]string, n)
	for i := 0; i < n; i++ {
		axes[i] = "/"
		if g.pct(g.cfg.DescendantPct) {
			axes[i] = "//"
			g.ordered = false
		}
		names[i] = g.tag()
		if g.pct(g.cfg.WildcardPct) {
			names[i] = "*"
			g.ordered = false
		}
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.WriteString(axes[i] + names[i])
		descLater := false
		for j := i + 1; j < n; j++ {
			descLater = descLater || axes[j] == "//"
		}
		if !descLater && g.pct(g.cfg.QualifierPct) {
			b.WriteString(g.qual())
		}
	}
	return b.String()
}

// NewQuery generates one random query drawn from cfg. It is a pure
// function of r's stream, so reusing a seed reproduces the query.
func NewQuery(r *rand.Rand, cfg QueryConfig) Query {
	g := &gen{r: r, cfg: cfg, ordered: true}
	if cfg.cross {
		return g.crossQuery()
	}
	var b strings.Builder

	// First binding is document-rooted at /RootTag, optionally stepping
	// further down.
	fmt.Fprintf(&b, "for $x in /%s", cfg.RootTag)
	if g.pct(70) {
		b.WriteString(g.bindingPath())
	}
	g.vars = append(g.vars, "$x")

	// Chained bindings off any previously defined variable. Rooting a
	// binding anywhere but the immediately preceding variable creates
	// sibling variables inside one table; the engine enumerates that
	// cartesian in column order (with multiplicities folded), which is a
	// legal reordering of the FLWR nested loops — compare as a multiset.
	extra := g.r.Intn(cfg.MaxExtraBindings + 1)
	for i := 0; i < extra; i++ {
		v := fmt.Sprintf("$v%d", i)
		parent := g.anyVar()
		if parent != g.vars[len(g.vars)-1] {
			g.ordered = false
		}
		fmt.Fprintf(&b, ", %s in %s%s", v, parent, g.bindingPath())
		g.vars = append(g.vars, v)
	}

	// Where clause: path-vs-constant selections and equality joins, all
	// qualifier-free (the planner's condition fragment).
	nconds := g.r.Intn(cfg.MaxConds + 1)
	var conds []string
	for i := 0; i < nconds; i++ {
		left := g.anyVar() + "/" + g.relPath(2)
		selPct := g.cfg.selPct
		if selPct == 0 {
			selPct = 65
		}
		if g.pct(selPct) {
			ops := []string{"=", "=", "!=", "<", ">="}
			conds = append(conds, fmt.Sprintf("%s %s '%s'", left, ops[g.r.Intn(len(ops))], g.value()))
		} else {
			right := g.anyVar()
			if g.pct(70) {
				right += "/" + g.relPath(2)
			}
			conds = append(conds, fmt.Sprintf("%s = %s", left, right))
		}
	}
	if len(conds) > 0 {
		b.WriteString(" where " + strings.Join(conds, " and "))
	}

	// Return clause: bare variables / qualifier-free paths, or an element
	// template with {$v/p} holes.
	b.WriteString(" return ")
	if cfg.subtreePct > 0 && g.pct(cfg.subtreePct) {
		b.WriteString(g.vars[0])
		if g.pct(50) {
			b.WriteString("/" + g.tag())
		}
	} else if g.pct(cfg.TemplatePct) {
		fmt.Fprintf(&b, "<item>{%s}", g.retTerm())
		if g.pct(40) {
			fmt.Fprintf(&b, "<extra>{%s}</extra>", g.retTerm())
		}
		b.WriteString("</item>")
	} else {
		items := 1 + g.r.Intn(2)
		var parts []string
		for i := 0; i < items; i++ {
			parts = append(parts, g.retTerm())
		}
		b.WriteString(strings.Join(parts, ", "))
	}

	return Query{Src: b.String(), Ordered: g.ordered}
}

// retTerm renders one variable-rooted, qualifier-free return term.
func (g *gen) retTerm() string {
	v := g.anyVar()
	if g.pct(50) {
		return v
	}
	return v + "/" + g.relPath(2)
}

// crossQuery renders a query of the cross-table slice: 2 or 3 bindings,
// each rooted at the document, 1 to n-1 equality joins between two of them
// written in either order (their paths reach several values per binding
// as often as the document repeats a tag), maybe a selection, and a
// return clause over a non-empty subset of the variables. With two
// bindings that subset is the earlier, the later or both: a dead
// later-bound side, a dead earlier-bound side, or both sides live.
//
// Ordered holds when, besides no '//' or '*' step, the engine keeps
// for-order. A dead variable folds into the multiplicities of the rows
// that remain, which repeat innermost: so with two bindings the earlier
// must be returned (a dead later one repeats each earlier tuple in place,
// as the nested loops do), and with three all must be, and the table
// merges must keep for-order (crossForOrder).
func (g *gen) crossQuery() Query {
	var b strings.Builder
	n := 2 + g.r.Intn(2)
	for i := 0; i < n; i++ {
		v := []string{"$x", "$y", "$z"}[i]
		sep := ", "
		if i == 0 {
			sep = "for "
		}
		fmt.Fprintf(&b, "%s%s in /%s%s", sep, v, g.cfg.RootTag, g.bindingPath())
		g.vars = append(g.vars, v)
	}
	var conds []string
	var joins [][2]int // the joined bindings, earlier first, in where order
	for j := 1 + g.r.Intn(n-1); j > 0; j-- {
		l, r := g.r.Intn(n), g.r.Intn(n-1)
		if r >= l {
			r++
		}
		joins = append(joins, [2]int{min(l, r), max(l, r)})
		right := g.vars[r]
		if g.pct(85) {
			right += "/" + g.relPath(1)
		}
		conds = append(conds, fmt.Sprintf("%s/%s = %s", g.vars[l], g.relPath(1), right))
	}
	if g.pct(20) {
		ops := []string{"=", "!=", "<", ">="}
		conds = append(conds, fmt.Sprintf("%s/%s %s '%s'", g.anyVar(), g.relPath(1), ops[g.r.Intn(len(ops))], g.value()))
	}
	live := 1 + g.r.Intn(1<<n-1) // bit i: variable i is returned
	var items []string
	for i, v := range g.vars {
		if live>>i&1 == 1 {
			if g.pct(50) {
				v += "/" + g.relPath(2)
			}
			items = append(items, v)
		}
	}
	fmt.Fprintf(&b, " where %s return %s", strings.Join(conds, " and "), strings.Join(items, ", "))
	ordered := g.ordered && (n == 2 && live&1 == 1 || live == 1<<n-1 && crossForOrder(n, joins))
	return Query{Src: b.String(), Ordered: ordered}
}

// crossForOrder reports whether the engine emits n live document-rooted
// bindings in for-order after the given joins: a join of two tables
// leaves one table in the earlier one's slot, its columns followed by the
// later one's, rows major by the earlier; tables are emitted in slot
// order.
func crossForOrder(n int, joins [][2]int) bool {
	tables := make([][]int, n) // per slot, the bindings of its table in column order
	slot := make([]int, n)     // per binding, its table's slot
	for i := range tables {
		tables[i], slot[i] = []int{i}, i
	}
	for _, j := range joins {
		a, c := slot[j[0]], slot[j[1]]
		if a == c {
			continue
		}
		a, c = min(a, c), max(a, c)
		for _, v := range tables[c] {
			slot[v] = a
		}
		tables[a], tables[c] = append(tables[a], tables[c]...), nil
	}
	return slices.IsSorted(slices.Concat(tables...))
}
