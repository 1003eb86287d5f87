package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Errcmp reports == and != comparisons against exported error sentinels
// (package-level `var ErrX = errors.New(...)` values). Since the serving
// layer started wrapping sentinels — ErrBadEvent carries the offending
// field — a direct identity comparison silently stops matching the
// moment a path adds context with fmt.Errorf("%w", ...). errors.Is unwraps; == does not. Comparisons
// with nil are fine (they test presence, not identity), and unlike most
// analyzers in this suite, _test.go files are NOT exempt: tests that
// pin behavior with `err == ErrX` are exactly the ones that break
// when wrapping is introduced.
var Errcmp = &Analyzer{
	Name: "errcmp",
	Doc: "flag == and != against Err* sentinel values (including in _test.go files); " +
		"wrapped errors never compare equal, so use errors.Is or //lint:ignore errcmp <reason>.",
	Run: runErrcmp,
}

func runErrcmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			be, ok := n.(*ast.BinaryExpr)
			if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
				return true
			}
			if isNilIdent(pass, be.X) || isNilIdent(pass, be.Y) {
				return true // err != nil tests presence, not identity
			}
			name, ok := sentinelName(pass, be.X)
			if !ok {
				name, ok = sentinelName(pass, be.Y)
			}
			if !ok {
				return true
			}
			pass.Reportf(be.OpPos, "%s against error sentinel %s; use errors.Is", be.Op, name)
			return true
		})
	}
	return nil
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(pass *Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := pass.Info.Uses[id].(*types.Nil)
	return isNil
}

// sentinelName resolves e to a package-level variable of type error whose
// name starts with "Err" — the repo's sentinel naming convention — and
// returns its name. Both plain identifiers (ErrEmptySet) and selectors
// (serve.ErrQueueFull) resolve through Info.Uses.
func sentinelName(pass *Pass, e ast.Expr) (string, bool) {
	var id *ast.Ident
	switch v := e.(type) {
	case *ast.Ident:
		id = v
	case *ast.SelectorExpr:
		id = v.Sel
	default:
		return "", false
	}
	obj, ok := pass.Info.Uses[id]
	if !ok {
		return "", false
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	if !strings.HasPrefix(v.Name(), "Err") || !isErrorType(v.Type()) {
		return "", false
	}
	return v.Name(), true
}
