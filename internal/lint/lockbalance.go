package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Lockbalance enforces the lock-release contract: a mutex locked in a
// function must be unlocked on every path out of it — a leaked lock is a
// deadlock waiting for load. The check is the same block-structured
// reachability approximation spanend uses: a deferred Unlock (directly or
// inside a deferred function literal) covers everything; otherwise each
// return after a Lock, and the implicit fall-off-the-end exit, needs a
// preceding Unlock in a scope that encloses it. Write locks (Lock/Unlock)
// and read locks (RLock/RUnlock) are tracked independently.
//
// The mutex type is matched by name (Mutex or RWMutex, value or pointer)
// so the linttest fixtures can define local stand-ins. A mutex that
// escapes the function's control — passed by address, handed to RLocker,
// or touched inside a non-deferred function literal — is not judged;
// helper functions that only Unlock (release on behalf of a caller) are
// likewise out of scope. Function literals are separate scopes, so a
// goroutine body that locks must itself unlock.
var Lockbalance = &Analyzer{
	Name: "lockbalance",
	Doc: "flag functions that Lock a mutex without a deferred or " +
		"all-paths Unlock (RLock/RUnlock tracked separately).",
	Run: runLockbalance,
}

// lockPairs maps the acquire method to its release for each mode.
var lockPairs = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

func runLockbalance(pass *Pass) error {
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
				checkLockScope(pass, body)
			}
			return true
		})
	}
	return nil
}

// lockKey identifies one mutex chain in one mode within a scope.
type lockKey struct {
	chain string // rendered receiver, e.g. "e.mu"
	mode  string // "Lock" or "RLock"
}

// lockState tracks one key's events inside a scope.
type lockState struct {
	locks    []token.Pos
	unlocks  []token.Pos
	deferred bool // defer x.Unlock() (or inside a deferred literal)
	escapes  bool
}

// renderChain flattens an Ident/SelectorExpr chain ("e.mu", "sh.vmu") or
// returns "" when the expression is anything else (indexing, calls, …).
func renderChain(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		base := renderChain(x.X)
		if base == "" {
			return ""
		}
		return base + "." + x.Sel.Name
	}
	return ""
}

// isMutexType reports whether t is (a pointer to) a named Mutex/RWMutex.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := types.Unalias(t).(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

func checkLockScope(pass *Pass, body *ast.BlockStmt) {
	// Deferred calls and nested-literal extents, as in spanend.
	deferredCalls := map[*ast.CallExpr]bool{}
	deferredLits := map[*ast.FuncLit]bool{}
	var litRanges []scopeRange
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			deferredCalls[x.Call] = true
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				deferredLits[lit] = true
			}
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
	inDeferredLit := func(p token.Pos) bool {
		for lit := range deferredLits {
			if lit.Pos() <= p && p < lit.End() {
				return true
			}
		}
		return false
	}

	// Pass 1: classify Lock/Unlock calls on mutex-typed chains. Receiver
	// expressions of recognized calls are sanctioned; any other appearance
	// of a tracked chain (pass 2) voids the key.
	states := map[lockKey]*lockState{}
	var order []lockKey
	sanctioned := map[ast.Expr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !isMutexType(pass.Info.Types[sel.X].Type) {
			return true
		}
		chain := renderChain(sel.X)
		if chain == "" {
			return true
		}
		var key lockKey
		var acquire bool
		switch sel.Sel.Name {
		case "Lock", "RLock":
			key = lockKey{chain, sel.Sel.Name}
			acquire = true
		case "Unlock":
			key = lockKey{chain, "Lock"}
		case "RUnlock":
			key = lockKey{chain, "RLock"}
		case "TryLock":
			key = lockKey{chain, "Lock"}
		case "TryRLock":
			key = lockKey{chain, "RLock"}
		default:
			return true
		}
		sanctioned[sel.X] = true
		st := states[key]
		if st == nil {
			st = &lockState{}
			states[key] = st
			order = append(order, key)
		}
		switch {
		case sel.Sel.Name == "TryLock" || sel.Sel.Name == "TryRLock":
			// Conditional acquisition needs flow tracking beyond the
			// block-structured model; leave the key unjudged.
			st.escapes = true
		case acquire:
			if inLit(call.Pos()) {
				st.escapes = true // a literal locking for the outer scope: not judged here
			} else if deferredCalls[call] {
				st.escapes = true // defer mu.Lock() is exotic; don't guess
			} else {
				st.locks = append(st.locks, call.Pos())
			}
		default: // release
			switch {
			case deferredCalls[call], inDeferredLit(call.Pos()):
				st.deferred = true
			case inLit(call.Pos()):
				st.escapes = true
			default:
				st.unlocks = append(st.unlocks, call.Pos())
			}
		}
		return true
	})
	if len(order) == 0 {
		return
	}

	// Pass 2: any unsanctioned appearance of a tracked chain (&mu,
	// mu.RLocker(), an argument…) escapes the block-structured model.
	ast.Inspect(body, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok || sanctioned[e] || !isMutexType(pass.Info.Types[e].Type) {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		chain := renderChain(e)
		if chain == "" {
			return true
		}
		for _, key := range order {
			if key.chain == chain {
				states[key].escapes = true
			}
		}
		// Don't descend: the Idents inside a matched SelectorExpr are not
		// independent appearances.
		return false
	})

	// Scopes and returns of this function, excluding nested literals.
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
	covered := func(st *lockState, lock, exit token.Pos) bool {
		for _, u := range st.unlocks {
			if lock < u && u < exit {
				if s := innermost(u); s.pos <= exit && exit < s.end {
					return true
				}
			}
		}
		return false
	}

	for _, key := range order {
		st := states[key]
		if st.escapes || st.deferred || len(st.locks) == 0 {
			continue
		}
		release := lockPairs[key.mode]
		for _, lock := range st.locks {
			if len(st.unlocks) == 0 {
				pass.Reportf(lock, "%s.%s() is never released in this function; defer %s.%s or release on every path",
					key.chain, key.mode, key.chain, release)
				break
			}
			home := innermost(lock)
			leak := token.NoPos
			for _, ret := range returns {
				if ret > lock && home.pos <= ret && ret < home.end && !covered(st, lock, ret) {
					leak = ret
					break
				}
			}
			if leak == token.NoPos && len(home.list) > 0 && !terminatesExt(home.list[len(home.list)-1]) {
				if p := home.end - 1; !covered(st, lock, p) {
					leak = p
				}
			}
			if leak != token.NoPos {
				pass.Reportf(lock, "%s.%s() is not released on every path (path reaching line %d lacks %s)",
					key.chain, key.mode, pass.Fset.Position(leak).Line, release)
			}
		}
	}
}

// terminatesExt extends spanend's terminates with switch/select: a
// switch with a default (or a select) whose every clause terminates
// cannot be fallen out of.
func terminatesExt(s ast.Stmt) bool {
	switch x := s.(type) {
	case *ast.SwitchStmt:
		return allClausesTerminate(x.Body, true)
	case *ast.TypeSwitchStmt:
		return allClausesTerminate(x.Body, true)
	case *ast.SelectStmt:
		return allClausesTerminate(x.Body, false)
	case *ast.IfStmt:
		if x.Else == nil || !terminatesExtBlockLike(x.Body) {
			return false
		}
		if blk, ok := x.Else.(*ast.BlockStmt); ok {
			return terminatesExtBlockLike(blk)
		}
		return terminatesExt(x.Else)
	case *ast.BlockStmt:
		return terminatesExtBlockLike(x)
	}
	return terminates(s)
}

func terminatesExtBlockLike(b *ast.BlockStmt) bool {
	return len(b.List) > 0 && terminatesExt(b.List[len(b.List)-1])
}

// allClausesTerminate reports whether every clause of a switch/select body
// ends in a terminating statement; needDefault additionally requires a
// default clause (a switch without one can fall through to the next
// statement).
func allClausesTerminate(body *ast.BlockStmt, needDefault bool) bool {
	hasDefault := false
	for _, stmt := range body.List {
		var list []ast.Stmt
		var isDefault bool
		switch c := stmt.(type) {
		case *ast.CaseClause:
			list, isDefault = c.Body, c.List == nil
		case *ast.CommClause:
			list, isDefault = c.Body, c.Comm == nil
		default:
			return false
		}
		if isDefault {
			hasDefault = true
		}
		if len(list) == 0 || !terminatesExt(list[len(list)-1]) {
			return false
		}
	}
	return !needDefault || hasDefault
}
