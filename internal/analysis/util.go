package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// calleeFunc resolves a call expression to the *types.Func it invokes
// (through selector or plain identifier), or nil.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether the call invokes pkgPath.name (package-level
// function or method; pkgPath is matched as a suffix so that fixture
// packages under testdata stand in for the real ones).
func isPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Name() != name || fn.Pkg() == nil {
		return false
	}
	return pathMatches(fn.Pkg().Path(), pkgPath)
}

// pathMatches reports whether got is pkgPath or ends in "/"+pkgPath.
func pathMatches(got, pkgPath string) bool {
	if got == pkgPath {
		return true
	}
	n := len(got) - len(pkgPath)
	return n > 0 && got[n-1] == '/' && got[n:] == pkgPath
}

// isBuiltin reports whether the call invokes the named builtin (panic, …).
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// constString returns the constant string value of e, if it has one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// lastIdent returns the final identifier of a selector chain (for x.y.mu it
// returns mu; for plain mu it returns mu), or nil.
func lastIdent(e ast.Expr) *ast.Ident {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	}
	return nil
}
