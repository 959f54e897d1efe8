package analysis

import "testing"

// One fixture per analyzer, each with at least one flagged and one clean
// case (see testdata/src/<name>/).

func TestCorruptErrFixture(t *testing.T)   { RunFixture(t, CorruptErr(), "corrupterr") }
func TestLockGuardFixture(t *testing.T)    { RunFixture(t, LockGuard(), "lockguard") }
func TestCtxPollFixture(t *testing.T)      { RunFixture(t, CtxPoll(), "ctxpoll") }
func TestObsNamesFixture(t *testing.T)     { RunFixture(t, ObsNames(), "obsnames") }
func TestSpanNamesFixture(t *testing.T)    { RunFixture(t, ObsNames(), "spannames") }
func TestRecoverScopeFixture(t *testing.T) { RunFixture(t, RecoverScope(), "recoverscope") }

// lockorder, the whole-program analyzer, runs over its fixture package as
// a one-package program.

func TestLockOrderFixture(t *testing.T) { RunProgramFixture(t, LockOrder(), "lockorder") }

// TestSuiteCleanOnRepo is `make lint` as a test: the full suite over the
// full repository must report nothing. Any finding here is either a real
// violation to fix or a decision to record with a //vx: annotation.
func TestSuiteCleanOnRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire repository")
	}
	l, roots, err := repoLoad()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := l.run(roots, Suite())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestAnalyzerScopes pins the covers matching: exact path, suffix, and
// interior segment all hit; substring of a segment does not.
func TestAnalyzerScopes(t *testing.T) {
	a := &Analyzer{Scope: []string{"internal/core"}}
	for path, want := range map[string]bool{
		"internal/core":           true,
		"vxml/internal/core":      true,
		"vxml/internal/core/sub":  true,
		"vxml/internal/coreutils": false,
		"vxml/internal/storage":   false,
	} {
		if got := a.covers(path); got != want {
			t.Errorf("covers(%q) = %v, want %v", path, got, want)
		}
	}
	if all := (&Analyzer{}); !all.covers("anything/at/all") {
		t.Error("empty scope must cover every package")
	}
}
