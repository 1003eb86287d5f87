package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Spanend enforces the span lifecycle contract from OBSERVABILITY.md: a
// span that a function starts (a call result of type *Span assigned to a
// local variable, including one opened in owner storage by StartIn or
// ChildIn) must be ended on every path out of the function —
// otherwise the record never reaches the buffer and the trace silently
// loses a segment. A span is considered handled when the function defers
// End/EndAt, calls End/EndAt before each return (block-structured
// approximation), or hands the span to someone else: passing it as an
// argument, returning it, storing it in a field, or capturing it in a
// closure all transfer the ending obligation and silence the check.
//
// The type match is by name ("Span" behind a pointer) rather than by
// package so the linttest fixtures, which cannot import repository
// packages through the source importer, can define a local stand-in.
var Spanend = &Analyzer{
	Name: "spanend",
	Doc: "flag functions that start a span (a *Span-returning call assigned to a local) " +
		"without ending it on every return path.",
	Run: runSpanend,
}

// spanEndMethods finish a span; one of these must guard every exit.
var spanEndMethods = map[string]bool{"End": true, "EndAt": true}

// spanUseMethods read or decorate a span without finishing it or moving
// responsibility for it; calling them keeps the obligation in place.
var spanUseMethods = map[string]bool{
	"SetAttr": true, "SetAttrInt": true, "SetAttrFloat": true,
	"Child": true, "ChildAt": true, "ChildIn": true, "Event": true, "ID": true,
}

func runSpanend(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			default:
				return true
			}
			if body != nil {
				checkSpanScope(pass, body)
			}
			return true
		})
	}
	return nil
}

// spanVar is one tracked span-typed local within a function scope.
type spanVar struct {
	name     string
	def      *ast.Ident  // the defining assignment's LHS
	pos      token.Pos   // assignment position (diagnostics anchor here)
	ends     []token.Pos // plain End/EndAt call sites
	deferred bool        // defer v.End()/v.EndAt(...) seen
	escapes  bool        // the value leaves this scope's control
}

// scopeRange is a statement list (block or switch/select clause body)
// used for the block-structured reachability approximation: an End call
// covers an exit only if the End's innermost scope also encloses it.
type scopeRange struct {
	pos, end token.Pos
	list     []ast.Stmt
}

func checkSpanScope(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: span-producing assignments directly in this scope (nested
	// function literals are their own scopes and are skipped here).
	vars := map[types.Object]*spanVar{}
	var order []*spanVar
	walkScope(body, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok || !isSpanPtr(pass.Info.Types[ast.Expr(call)].Type) {
			return
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil || vars[obj] != nil {
			return
		}
		v := &spanVar{name: id.Name, def: id, pos: as.Pos()}
		vars[obj] = v
		order = append(order, v)
	})
	if len(vars) == 0 {
		return
	}

	// Context maps for pass 2: which calls are deferred, and which code
	// ranges belong to nested function literals.
	deferredCalls := map[*ast.CallExpr]bool{}
	var litRanges []scopeRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
		case *ast.FuncLit:
			litRanges = append(litRanges, scopeRange{pos: x.Pos(), end: x.End()})
		}
		return true
	})
	inLit := func(p token.Pos) bool {
		for _, r := range litRanges {
			if r.pos <= p && p < r.end {
				return true
			}
		}
		return false
	}

	// Pass 2: classify method calls on tracked spans. Receiver idents of
	// recognized methods (and the defining LHS) are accounted for; any
	// other appearance of the variable is an escape.
	handled := map[*ast.Ident]bool{}
	for _, v := range order {
		handled[v.def] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		id, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		v := vars[pass.Info.ObjectOf(id)]
		if v == nil {
			return true
		}
		name := sel.Sel.Name
		switch {
		case spanEndMethods[name]:
			handled[id] = true
			switch {
			case inLit(call.Pos()):
				// A closure ends it; when and whether it runs is beyond a
				// block-structured check, so trust the wiring.
				v.escapes = true
			case deferredCalls[call]:
				v.deferred = true
			default:
				v.ends = append(v.ends, call.Pos())
			}
		case spanUseMethods[name]:
			handled[id] = true
			if inLit(call.Pos()) {
				v.escapes = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || handled[id] {
			return true
		}
		if v := vars[pass.Info.ObjectOf(id)]; v != nil {
			v.escapes = true
		}
		return true
	})

	// Statement-list scopes and return statements of this function (both
	// excluding nested literals).
	var scopes []scopeRange
	var returns []token.Pos
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BlockStmt:
			scopes = append(scopes, scopeRange{pos: x.Pos(), end: x.End(), list: x.List})
		case *ast.CaseClause:
			scopes = append(scopes, scopeRange{pos: x.Pos(), end: x.End(), list: x.Body})
		case *ast.CommClause:
			scopes = append(scopes, scopeRange{pos: x.Pos(), end: x.End(), list: x.Body})
		case *ast.ReturnStmt:
			returns = append(returns, x.Pos())
		}
		return true
	})
	innermost := func(p token.Pos) scopeRange {
		best := scopeRange{pos: body.Pos(), end: body.End(), list: body.List}
		for _, s := range scopes {
			if s.pos <= p && p < s.end && s.pos >= best.pos {
				best = s
			}
		}
		return best
	}
	// covered reports whether some End call definitely precedes the exit
	// at p: it must be positioned between the start and the exit, in a
	// scope that encloses the exit (an End inside a sibling branch does
	// not count).
	covered := func(v *spanVar, p token.Pos) bool {
		for _, e := range v.ends {
			if v.pos < e && e < p {
				if s := innermost(e); s.pos <= p && p < s.end {
					return true
				}
			}
		}
		return false
	}

	for _, v := range order {
		if v.escapes || v.deferred {
			continue
		}
		if len(v.ends) == 0 {
			pass.Reportf(v.pos, "span %s is never ended; call %s.End on every path or defer it", v.name, v.name)
			continue
		}
		home := innermost(v.pos)
		leak := token.NoPos
		for _, ret := range returns {
			if ret > v.pos && home.pos <= ret && ret < home.end && !covered(v, ret) {
				leak = ret
				break
			}
		}
		// The implicit exit: control falling off the end of the span's
		// own statement list, unless that list visibly terminates.
		if leak == token.NoPos && len(home.list) > 0 && !terminates(home.list[len(home.list)-1]) {
			if p := home.end - 1; !covered(v, p) {
				leak = p
			}
		}
		if leak != token.NoPos {
			pass.Reportf(v.pos, "span %s is not ended on every return path (path reaching line %d lacks End)",
				v.name, pass.Fset.Position(leak).Line)
		}
	}
}

// walkScope visits every node in body except nested function literals.
func walkScope(body *ast.BlockStmt, fn func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

// isSpanPtr reports whether t is a pointer to a named type called Span.
func isSpanPtr(t types.Type) bool {
	ptr, ok := types.Unalias(t).(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := types.Unalias(ptr.Elem()).(*types.Named)
	return ok && named.Obj().Name() == "Span"
}

// terminates conservatively reports whether control cannot flow past s:
// a return, a panic, an if/else where both arms terminate, or an
// unconditional for loop. Anything it cannot prove is non-terminating,
// which errs toward reporting.
func terminates(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		call, ok := x.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	case *ast.BlockStmt:
		return len(x.List) > 0 && terminates(x.List[len(x.List)-1])
	case *ast.IfStmt:
		if x.Else == nil || !terminates(x.Body) {
			return false
		}
		return terminates(x.Else)
	case *ast.ForStmt:
		return x.Cond == nil
	}
	return false
}
