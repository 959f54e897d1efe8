package analysis

import (
	"path/filepath"
	"testing"
)

// The loader must type-check a real repo package — including its stdlib
// dependency closure — with full type information. Listing one package
// is cheap; the type-check goes through the shared repository load.
func TestLoaderTypechecksRepoPackage(t *testing.T) {
	_, roots, err := NewLoader("../..", []string{"./internal/obs"})
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", roots)
	}
	l, _, err := repoLoad()
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := l.Load(roots[0])
	if err != nil {
		t.Fatalf("Load(%s): %v", roots[0], err)
	}
	if pkg.Types == nil || pkg.Types.Name() != "obs" {
		t.Fatalf("loaded package %v, want package obs with types", pkg.Types)
	}
	if pkg.Types.Scope().Lookup("GetCounter") == nil {
		t.Error("package obs should export GetCounter")
	}
	// Memoization: loading again returns the same package object.
	again, err := l.Load(roots[0])
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if again != pkg {
		t.Error("Load is not memoized")
	}
}

// The loader delegates file selection to `go list`, so build-constrained
// files stay out of the parse set: testdata/mod_buildtags is a
// self-contained module whose dropped.go carries //go:build sometag and
// would not even type-check alongside kept.go if it loaded by mistake.
func TestLoaderHonorsBuildTags(t *testing.T) {
	dir := filepath.Join("testdata", "mod_buildtags")
	l, roots, err := NewLoader(dir, []string{"."})
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if len(roots) != 1 {
		t.Fatalf("roots = %v, want exactly one", roots)
	}
	pkg, err := l.Load(roots[0])
	if err != nil {
		t.Fatalf("Load(%s): %v", roots[0], err)
	}
	if len(pkg.Files) != 1 {
		t.Errorf("loaded %d files, want 1 (dropped.go is build-tagged out)", len(pkg.Files))
	}
	scope := pkg.Types.Scope()
	if scope.Lookup("Kept") == nil {
		t.Error("Kept should be declared")
	}
	if scope.Lookup("Dropped") != nil {
		t.Error("Dropped is behind //go:build sometag and should not load")
	}
}
