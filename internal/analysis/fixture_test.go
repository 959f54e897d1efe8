package analysis

// The fixture harness is an analysistest equivalent: each analyzer has a
// GOPATH-style package under testdata/src/<name>/ whose `// want "regexp"`
// trailing comments declare the diagnostics the analyzer must produce on
// that line — nothing more, nothing less. Fixture imports resolve against
// testdata/src first (companion stubs such as testdata/src/storage), then
// against the real standard library via the shared repository loader.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var (
	repoOnce   sync.Once
	repoLoader *Loader
	repoRoots  []string
	repoErr    error
)

// repoLoad lists the repository once per test binary, for every test
// that type-checks: the suite run over the repository, the loader tests
// and the fixtures' standard-library imports all share its memoized
// type-checks (type-checking from source is where the time goes).
func repoLoad() (*Loader, []string, error) {
	repoOnce.Do(func() {
		repoLoader, repoRoots, repoErr = NewLoader("../..", []string{"./..."})
	})
	return repoLoader, repoRoots, repoErr
}

// fixtureImporter resolves imports for fixture packages: testdata/src
// first (companion stubs such as testdata/src/storage), then the standard
// library packages the repository imports, through repoLoad.
type fixtureImporter struct {
	fset *token.FileSet
	root string
	pkgs map[string]*types.Package
}

func newTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
}

func (im *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	dir := filepath.Join(im.root, path)
	if fi, err := os.Stat(dir); err == nil && fi.IsDir() {
		files, err := parseFixtureDir(im.fset, dir)
		if err != nil {
			return nil, err
		}
		conf := types.Config{Importer: im}
		tp, err := conf.Check(path, im.fset, files, newTypesInfo())
		if err != nil {
			return nil, fmt.Errorf("fixture dep %s: %w", path, err)
		}
		im.pkgs[path] = tp
		return tp, nil
	}
	l, _, err := repoLoad()
	if err != nil {
		return nil, err
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Types, nil
}

func parseFixtureDir(fset *token.FileSet, dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// A wantExpect is one `// want "re"` expectation.
type wantExpect struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

var wantLineRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var wantArgRe = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) []*wantExpect {
	t.Helper()
	var wants []*wantExpect
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantLineRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				for _, q := range wantArgRe.FindAllString(m[1], -1) {
					pat, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s: bad want string %s: %v", pos, q, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
					}
					wants = append(wants, &wantExpect{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return wants
}

// loadFixture parses and type-checks the package at testdata/src/<pkg>.
func loadFixture(t *testing.T, pkg string) (*token.FileSet, *Package) {
	t.Helper()
	root := filepath.Join("testdata", "src")
	fset := token.NewFileSet()
	files, err := parseFixtureDir(fset, filepath.Join(root, pkg))
	if err != nil {
		t.Fatalf("parse fixture %s: %v", pkg, err)
	}
	if len(files) == 0 {
		t.Fatalf("fixture %s has no Go files", pkg)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: &fixtureImporter{fset: fset, root: root, pkgs: make(map[string]*types.Package)}}
	tpkg, err := conf.Check(pkg, fset, files, info)
	if err != nil {
		t.Fatalf("typecheck fixture %s: %v", pkg, err)
	}
	return fset, &Package{ImportPath: pkg, Files: files, Types: tpkg, TypesInfo: info}
}

// RunFixture applies the analyzer to testdata/src/<pkg> and checks its
// diagnostics against the fixture's want comments.
func RunFixture(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	fset, p := loadFixture(t, pkg)
	pass := &Pass{Analyzer: a, Fset: fset, Files: p.Files, Pkg: p.Types, TypesInfo: p.TypesInfo}
	if err := a.Run(pass); err != nil {
		t.Fatalf("run %s on fixture %s: %v", a.Name, pkg, err)
	}
	checkWants(t, fset, p.Files, pass.diags)
}

// RunProgramFixture applies a whole-program analyzer to the fixture
// package alone as the Program.
func RunProgramFixture(t *testing.T, a *Analyzer, pkg string) {
	t.Helper()
	fset, p := loadFixture(t, pkg)
	pass := &ProgramPass{Analyzer: a, Prog: BuildProgram(fset, []*Package{p})}
	if err := a.RunProgram(pass); err != nil {
		t.Fatalf("run %s on fixture %s: %v", a.Name, pkg, err)
	}
	checkWants(t, fset, p.Files, pass.diags)
}

// checkWants matches produced diagnostics against the fixture's want
// comments: every diagnostic must match a want on its line, and every
// want must be matched exactly once.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	wants := collectWants(t, fset, files)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.re)
		}
	}
}
