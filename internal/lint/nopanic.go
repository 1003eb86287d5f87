package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NopanicProtected lists the import paths whose exported API must not
// panic: the numerics and recognition packages that process raw,
// possibly-degenerate gesture data. Data-dependent failures there must be
// returned as errors — a panic inside the per-mouse-point path takes down
// the whole interface over one malformed stroke. The var is exported so
// tests can scope the analyzer to fixture packages.
var NopanicProtected = map[string]bool{
	"repro/internal/classifier": true,
	"repro/internal/eager":      true,
	"repro/internal/recognizer": true,
	"repro/internal/features":   true,
	"repro/internal/linalg":     true,
}

// Nopanic reports panic calls reachable from the exported functions of
// protected packages, following the package-internal static call graph.
var Nopanic = &Analyzer{
	Name: "nopanic",
	Doc: "flag panic calls reachable from exported functions of the recognition and numerics packages " +
		"(repro/internal/{classifier,eager,recognizer,features,linalg}); data-dependent failures must return errors. " +
		"Invariant guards that cannot be reached by data may be allowlisted with //lint:ignore nopanic <reason>.",
	Run: runNopanic,
}

// funcNode is one node of the intra-package call graph.
type funcNode struct {
	decl     *ast.FuncDecl
	exported bool
	panics   []token.Pos // direct panic call sites in the body
	calls    map[*funcNode]bool
}

func runNopanic(pass *Pass) error {
	if !NopanicProtected[pass.Pkg.Path()] {
		return nil
	}

	// Index every function declaration by its types.Object so call sites
	// can be resolved to declarations.
	nodes := map[types.Object]*funcNode{}
	var order []*funcNode
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj := pass.Info.Defs[fd.Name]
			if obj == nil {
				continue
			}
			n := &funcNode{decl: fd, exported: exportedEntry(fd), calls: map[*funcNode]bool{}}
			nodes[obj] = n
			order = append(order, n)
		}
	}

	// Populate panic sites and intra-package call edges.
	for _, n := range order {
		node := n
		ast.Inspect(node.decl.Body, func(nd ast.Node) bool {
			call, ok := nd.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := call.Fun.(type) {
			case *ast.Ident:
				obj := pass.Info.Uses[fun]
				if obj == nil {
					return true
				}
				if obj == types.Universe.Lookup("panic") {
					node.panics = append(node.panics, call.Pos())
					return true
				}
				if callee := nodes[obj]; callee != nil {
					node.calls[callee] = true
				}
			case *ast.SelectorExpr:
				if obj := pass.Info.Uses[fun.Sel]; obj != nil {
					if callee := nodes[obj]; callee != nil {
						node.calls[callee] = true
					}
				}
			}
			return true
		})
	}

	// From each exported entry point, walk the call graph and report every
	// reachable panic site once, naming one exported function it is
	// reachable from.
	reported := map[token.Pos]bool{}
	for _, root := range order {
		if !root.exported {
			continue
		}
		seen := map[*funcNode]bool{}
		stack := []*funcNode{root}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[n] {
				continue
			}
			seen[n] = true
			for _, p := range n.panics {
				if reported[p] {
					continue
				}
				reported[p] = true
				pass.Reportf(p, "panic reachable from exported function %s; data-dependent failures must return errors",
					root.decl.Name.Name)
			}
			for callee := range n.calls {
				stack = append(stack, callee)
			}
		}
	}
	return nil
}

// exportedEntry reports whether fd is part of the package's exported API:
// an exported top-level function, or an exported method on an exported
// type.
func exportedEntry(fd *ast.FuncDecl) bool {
	if !fd.Name.IsExported() {
		return false
	}
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return true
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr: // generic receiver
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
