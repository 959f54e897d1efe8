package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Name       string
	GoFiles    []string
	ImportMap  map[string]string
	Standard   bool
}

// A Package is one loaded, type-checked package.
type Package struct {
	ImportPath string
	Files      []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info
}

// A Loader parses and type-checks packages using `go list` metadata. It
// replaces golang.org/x/tools/go/packages with just the standard library:
// `go list -deps -json` supplies the dependency closure and per-package
// ImportMap (which resolves vendored stdlib import paths), and a memoizing
// importer type-checks dependencies on demand.
type Loader struct {
	Fset *token.FileSet
	meta map[string]*listPkg // import path -> metadata
	pkgs map[string]*Package // import path -> loaded package (nil while in progress)
	tpkg map[string]*types.Package
}

// NewLoader runs `go list -deps -json` over patterns in dir and returns a
// loader covering the whole dependency closure, plus the root package paths
// the patterns named.
func NewLoader(dir string, patterns []string) (*Loader, []string, error) {
	l := &Loader{
		Fset: token.NewFileSet(),
		meta: make(map[string]*listPkg),
		pkgs: make(map[string]*Package),
		tpkg: make(map[string]*types.Package),
	}
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,Name,GoFiles,ImportMap,Standard"}, patterns...)
	out, err := goCmd(dir, args...)
	if err != nil {
		return nil, nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		var p listPkg
		if err := dec.Decode(&p); err != nil {
			return nil, nil, fmt.Errorf("analysis: decoding go list output: %w", err)
		}
		l.meta[p.ImportPath] = &p
	}
	// A second, shallow `go list` resolves which packages the patterns
	// named (the -deps stream interleaves roots with dependencies).
	out, err = goCmd(dir, append([]string{"list"}, patterns...)...)
	if err != nil {
		return nil, nil, err
	}
	var roots []string
	for _, line := range bytes.Split(bytes.TrimSpace(out), []byte("\n")) {
		if len(line) > 0 {
			roots = append(roots, string(line))
		}
	}
	sort.Strings(roots)
	return l, roots, nil
}

// goCmd runs the go tool in dir with CGO disabled (cgo packages cannot be
// type-checked from source without running cgo itself).
func goCmd(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go %v: %v\n%s", args, err, stderr.Bytes())
	}
	return out, nil
}

// Load parses and type-checks the package at importPath (and, transitively,
// everything it imports). Results are memoized.
func (l *Loader) Load(importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", importPath)
		}
		return pkg, nil
	}
	meta, ok := l.meta[importPath]
	if !ok {
		return nil, fmt.Errorf("analysis: no metadata for %s", importPath)
	}
	l.pkgs[importPath] = nil // cycle guard
	files := make([]*ast.File, 0, len(meta.GoFiles))
	for _, name := range meta.GoFiles {
		f, err := parser.ParseFile(l.Fset, filepath.Join(meta.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{
		Importer: &pkgImporter{l: l, importMap: meta.ImportMap},
		Error:    func(error) {}, // collect everything; first error returned below
	}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	pkg := &Package{
		ImportPath: importPath,
		Files:      files,
		Types:      tpkg,
		TypesInfo:  info,
	}
	l.pkgs[importPath] = pkg
	l.tpkg[importPath] = tpkg
	return pkg, nil
}

// pkgImporter resolves one package's imports through the loader, applying
// the package's ImportMap first (this is how vendored stdlib paths such as
// golang.org/x/crypto/... inside net/http resolve).
type pkgImporter struct {
	l         *Loader
	importMap map[string]string
}

func (im *pkgImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := im.importMap[path]; ok {
		path = mapped
	}
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := im.l.tpkg[path]; ok {
		return tp, nil
	}
	pkg, err := im.l.Load(path)
	if err != nil {
		return nil, err
	}
	return pkg.Types, nil
}

// compile-time assertion: pkgImporter satisfies types.Importer.
var _ types.Importer = (*pkgImporter)(nil)

// Run loads every package patterns name in dir and applies each
// per-package analyzer whose Scope covers it, plus each whole-program
// analyzer once over the call graph of every module (non-stdlib)
// package in the load. Diagnostics come back deterministically: sorted
// by position then analyzer, with identical findings from overlapping
// passes deduplicated.
func Run(dir string, patterns []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	l, roots, err := NewLoader(dir, patterns)
	if err != nil {
		return nil, err
	}
	return l.run(roots, analyzers)
}

// run is Run over packages l has already listed.
func (l *Loader) run(roots []string, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, root := range roots {
		pkg, err := l.Load(root)
		if err != nil {
			return nil, err
		}
		for _, a := range analyzers {
			if a.Run == nil || !a.covers(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      l.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
			diags = append(diags, pass.diags...)
		}
	}
	var programAnalyzers []*Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			programAnalyzers = append(programAnalyzers, a)
		}
	}
	if len(programAnalyzers) > 0 {
		pkgs, err := l.loadModule()
		if err != nil {
			return nil, err
		}
		prog := BuildProgram(l.Fset, pkgs)
		for _, a := range programAnalyzers {
			pass := &ProgramPass{Analyzer: a, Prog: prog}
			if err := a.RunProgram(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
			diags = append(diags, pass.diags...)
		}
	}
	return SortDiagnostics(diags), nil
}

// loadModule loads every non-stdlib package in the `go list -deps`
// closure — the whole-program analyzers' view of the module.
func (l *Loader) loadModule() ([]*Package, error) {
	paths := make([]string, 0, len(l.meta))
	for path, meta := range l.meta {
		if !meta.Standard {
			paths = append(paths, path)
		}
	}
	sort.Strings(paths)
	pkgs := make([]*Package, 0, len(paths))
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// SortDiagnostics orders diagnostics by (file, line, column, analyzer,
// message) and drops exact duplicates, so vxlint output is byte-stable
// across runs and overlapping passes report a finding once.
func SortDiagnostics(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for _, d := range diags {
		if n := len(out); n > 0 {
			prev := out[n-1]
			if prev.Pos == d.Pos && prev.Analyzer == d.Analyzer && prev.Message == d.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}
