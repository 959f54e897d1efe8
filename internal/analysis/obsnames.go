package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
)

// obsNameRe is the registry naming convention: dotted lowercase segments,
// which /metrics normalizes to vx_<pkg>_<name>. The first segment must be
// the registering package's name so that dashboards group by subsystem.
var obsNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// ObsNames checks every obs.GetCounter / obs.GetHistogram / obs.GetGauge
// registration: the name must be a constant string matching the
// vx_<pkg>_<name> convention, its first segment must equal the package
// name, each name is registered exactly once, and registration happens at
// package scope (package-level var or init) so counters are
// process-global, not re-created per value.
//
// It applies the same convention to span names: the name argument of
// obs.StartSpan and (*obs.SpanTrace).Start must be
// a package-level string constant matching <pkg>.<dotted_name> whose first
// segment is the package name, and each span name belongs to exactly one
// Start call site (one const, one site keeps trace trees unambiguous).
func ObsNames() *Analyzer {
	a := &Analyzer{
		Name: "obsnames",
		Doc:  "obs metric and span names follow vx_<pkg>_<name> and register exactly once at package scope",
	}
	a.Run = func(pass *Pass) error {
		// Positions of registration calls that occur at package scope:
		// inside a package-level var declaration or an init function.
		atPkgScope := make(map[*ast.CallExpr]bool)
		mark := func(n ast.Node) {
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					atPkgScope[call] = true
				}
				return true
			})
		}
		for _, f := range pass.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.GenDecl:
					mark(d)
				case *ast.FuncDecl:
					if d.Name.Name == "init" && d.Recv == nil && d.Body != nil {
						mark(d.Body)
					}
				}
			}
		}
		seen := make(map[string]bool)
		seenSpan := make(map[string]bool)
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				// The obs package itself forwards caller-supplied names
				// through its Start helpers; the convention binds callers.
				if isSpanStart(pass.TypesInfo, call) && len(call.Args) >= 2 && pass.Pkg.Name() != "obs" {
					name, ok := pkgLevelConst(pass.TypesInfo, pass.Pkg, call.Args[1])
					if !ok {
						pass.Reportf(call.Pos(), "span name must be a package-level string constant")
						return true
					}
					if !obsNameRe.MatchString(name) {
						pass.Reportf(call.Pos(), "span name %q does not match the <pkg>.<dotted_name> convention", name)
						return true
					}
					if first := name[:indexByte(name, '.')]; first != pass.Pkg.Name() {
						pass.Reportf(call.Pos(), "span name %q: first segment must be the package name %q", name, pass.Pkg.Name())
					}
					if seenSpan[name] {
						pass.Reportf(call.Pos(), "span name %q started at more than one call site", name)
					}
					seenSpan[name] = true
					return true
				}
				isCtr := isPkgFunc(pass.TypesInfo, call, "obs", "GetCounter")
				isHist := isPkgFunc(pass.TypesInfo, call, "obs", "GetHistogram")
				isGauge := isPkgFunc(pass.TypesInfo, call, "obs", "GetGauge")
				if (!isCtr && !isHist && !isGauge) || len(call.Args) == 0 {
					return true
				}
				name, ok := constString(pass.TypesInfo, call.Args[0])
				if !ok {
					pass.Reportf(call.Pos(), "metric name must be a constant string")
					return true
				}
				if !obsNameRe.MatchString(name) {
					pass.Reportf(call.Pos(), "metric name %q does not match the <pkg>.<dotted_name> convention", name)
					return true
				}
				if first := name[:indexByte(name, '.')]; first != pass.Pkg.Name() {
					pass.Reportf(call.Pos(), "metric name %q: first segment must be the package name %q", name, pass.Pkg.Name())
				}
				if seen[name] {
					pass.Reportf(call.Pos(), "metric %q registered more than once", name)
				}
				seen[name] = true
				if !atPkgScope[call] {
					pass.Reportf(call.Pos(), "metric %q registered outside a package-level var or init; re-registration per value hides process totals", name)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// isSpanStart reports whether the call mints a span: obs.StartSpan or
// the Start method on *obs.SpanTrace.
func isSpanStart(info *types.Info, call *ast.CallExpr) bool {
	if isPkgFunc(info, call, "obs", "StartSpan") {
		return true
	}
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != "Start" || fn.Pkg() == nil || !pathMatches(fn.Pkg().Path(), "obs") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SpanTrace"
}

// pkgLevelConst returns the string value of e when e is an identifier
// bound to a package-level string constant of pkg.
func pkgLevelConst(info *types.Info, pkg *types.Package, e ast.Expr) (string, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return "", false
	}
	c, ok := info.Uses[id].(*types.Const)
	if !ok || c.Parent() != pkg.Scope() || c.Val().Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(c.Val()), true
}

// indexByte is strings.IndexByte without the import; the regexp above
// guarantees at least one dot before this is called.
func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return len(s)
}
