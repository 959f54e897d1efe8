// Package analysis is a self-contained static-analysis framework with the
// go/analysis vocabulary (Analyzer, Pass, Diagnostic) built entirely on the
// standard library's go/ast and go/types. It holds the invariants whose
// violation no test in the repository catches (EXPERIMENTS.md keeps the
// mutation audit that decides this): decode errors wrapping
// storage.ErrCorrupt (corrupterr), the cancellation-polling cadence
// (ctxpoll), mutex-guarded fields (lockguard), obs metric and span naming
// (obsnames), recover() only at sanctioned boundaries (recoverscope) and
// a cycle-free global lock order (lockorder, the one whole-program pass).
// cmd/vxlint runs the suite; the analyzers live in this package
// alongside the loader.
//
// # Escape hatches
//
// Analyzers take //vx: annotations so that a human decision is recorded
// next to the code it covers:
//
//	//vx:unreachable <why>        a panic that no input bytes can reach (corrupterr)
//	//vx:locked <mu> <why>        every caller holds <mu> (lockguard)
//	//vx:rawvector <why>          a sanctioned raw Vectors.Vector open (ctxpoll)
//	//vx:recover-boundary <why>   a sanctioned recover() choke point (recoverscope)
//	//vx:lockorder <why>          a lock nesting excluded from the global order graph (lockorder)
//
// and lockguard's positive annotation, a trailing field comment:
//
//	cache map[K]V // guarded by mu
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// An Analyzer describes one invariant checker. Per-package analyzers
// set Run and are applied to each loaded package in isolation;
// whole-program analyzers set RunProgram and are applied once to the
// call graph over every module package of the load. Exactly one of the
// two must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and -only filters.
	Name string
	// Doc is a one-line description.
	Doc string
	// Scope restricts a per-package analyzer to packages whose import
	// path contains one of these path suffixes (e.g. "internal/core").
	// Empty means every package loaded.
	Scope []string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
	// RunProgram applies the analyzer to the whole program at once.
	RunProgram func(*ProgramPass) error
}

// covers reports whether the analyzer applies to the import path.
func (a *Analyzer) covers(path string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, s := range a.Scope {
		if path == s || strings.HasSuffix(path, "/"+s) || strings.Contains(path, "/"+s+"/") {
			return true
		}
	}
	return false
}

// A Pass is one (analyzer, package) application: the syntax trees and type
// information of a single type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// A Diagnostic is one finding, with a resolved source position.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Annotations indexes a package's //vx: markers by file and line so
// analyzers can honor their escape hatches. A marker suppresses findings
// on its own line and on the line directly below it (the usual "comment
// above the statement" placement).
type Annotations struct {
	fset *token.FileSet
	m    map[string]map[int]string // filename -> line -> marker body
}

// NewAnnotations scans the files' comments for //vx: markers.
func NewAnnotations(fset *token.FileSet, files []*ast.File) *Annotations {
	a := &Annotations{fset: fset, m: make(map[string]map[int]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := strings.CutPrefix(c.Text, "//vx:")
				if !ok {
					continue
				}
				p := fset.Position(c.Pos())
				lines := a.m[p.Filename]
				if lines == nil {
					lines = make(map[int]string)
					a.m[p.Filename] = lines
				}
				lines[p.Line] = strings.TrimSpace(body)
			}
		}
	}
	return a
}

// Marked reports whether pos is covered by a //vx:<marker> annotation (same
// line, or the line above), returning the annotation's argument text.
func (a *Annotations) Marked(pos token.Pos, marker string) (string, bool) {
	p := a.fset.Position(pos)
	lines := a.m[p.Filename]
	if lines == nil {
		return "", false
	}
	for _, ln := range [2]int{p.Line, p.Line - 1} {
		if body, ok := lines[ln]; ok {
			if rest, ok := cutMarker(body, marker); ok {
				return rest, true
			}
		}
	}
	return "", false
}

// DocAnnotation finds //vx:<marker> in a declaration's doc comment and
// returns its argument text.
func DocAnnotation(doc *ast.CommentGroup, marker string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		body, ok := strings.CutPrefix(c.Text, "//vx:")
		if !ok {
			continue
		}
		if rest, ok := cutMarker(strings.TrimSpace(body), marker); ok {
			return rest, true
		}
	}
	return "", false
}

// cutMarker matches "marker" or "marker <arg>" and returns the argument.
func cutMarker(body, marker string) (string, bool) {
	rest, ok := strings.CutPrefix(body, marker)
	if !ok || (rest != "" && !strings.HasPrefix(rest, " ")) {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

var guardedByRe = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_]*)`)

// GuardedBy extracts the mutex name from a struct field's "guarded by <mu>"
// comment (doc comment or trailing line comment), or "".
func GuardedBy(field *ast.Field) string {
	for _, cg := range [2]*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}
