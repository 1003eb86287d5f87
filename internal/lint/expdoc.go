package lint

import (
	"go/ast"
	"go/token"
)

// ExpdocPackages lists the import paths whose exported identifiers must
// all carry doc comments. These are the concurrency-bearing packages —
// the serving engine, both streaming recognizer backends, the backend
// interface itself, the session layer, the metrics layer, and the chaos
// core with its connection-level adapter — where an undocumented
// exported identifier is an undocumented concurrency contract
// (DESIGN.md §7, BACKENDS.md). The var is exported so tests can scope
// the analyzer to fixture packages.
var ExpdocPackages = map[string]bool{
	"repro/internal/serve":      true,
	"repro/internal/eager":      true,
	"repro/internal/obs":        true,
	"repro/internal/template":   true,
	"repro/internal/multipath":  true,
	"repro/internal/recognizer": true,
	"repro/internal/slo":        true,
	"repro/internal/netfault":   true,
	"repro/internal/fault":      true,
}

// Expdoc reports exported identifiers of the documented-contract
// packages that lack a doc comment.
var Expdoc = &Analyzer{
	Name: "expdoc",
	Doc: "flag exported identifiers without doc comments in the concurrency-contract packages " +
		"(repro/internal/{serve,eager,obs,template,multipath,recognizer,slo,netfault,fault}); every exported identifier there must document its " +
		"behaviour, including its concurrency contract where it has one.",
	Run: runExpdoc,
}

func runExpdoc(pass *Pass) error {
	if !ExpdocPackages[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !exportedEntry(d) {
					continue
				}
				if d.Doc.Text() == "" {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					pass.Reportf(d.Name.Pos(), "exported %s %s has no doc comment", kind, d.Name.Name)
				}
			case *ast.GenDecl:
				runExpdocGen(pass, d)
			}
		}
	}
	return nil
}

// runExpdocGen checks one type/const/var declaration. Only leading doc
// comments count — on the declaration group (covering every spec in it)
// or on the individual spec. Trailing line comments are not godoc.
func runExpdocGen(pass *Pass, d *ast.GenDecl) {
	groupDoc := d.Doc.Text() != ""
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if !groupDoc && s.Doc.Text() == "" {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			kind := "var"
			if d.Tok == token.CONST {
				kind = "const"
			}
			documented := groupDoc || s.Doc.Text() != ""
			for _, name := range s.Names {
				if name.IsExported() && !documented {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment", kind, name.Name)
				}
			}
		}
	}
}
