// Package writeonly reports struct fields that are written but never
// read. A field that code only ever assigns is state nothing consults:
// it still compiles, links and costs memory in every instance, and a
// linker-based dead-code scan cannot see it, because the writes keep
// it alive. Unexported fields can be read only inside their package,
// so one package's files settle the question.
//
// A field is reported when it is unexported, declared in a non-test
// file, not embedded, and no file of the pass reads it. These do not
// count as reads:
//
//   - an assignment target (x.f = v, x.f += v, x.f++);
//   - a composite-literal key (T{f: v});
//   - the operand of an indexed assignment (x.f[k] = v);
//   - the first argument of x.f = append(x.f, ...).
//
// Everything else does, including taking the address (&x.f), ranging
// over the field, or passing it to delete or clear. The pass holds the
// package's _test.go files when the driver loads tests (escort-lint's
// default), so a field only the package's tests read counts as read;
// with -tests=false those fields are reported too.
package writeonly

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// Analyzer is the writeonly analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "writeonly",
	Doc: "report unexported struct fields, declared in non-test files, " +
		"that no file of their package reads (assignment targets, " +
		"composite-literal keys, indexed assignments and self-appends are writes)",
	Run: run,
}

func run(pass *analysis.Pass) error {
	var fields []*types.Var
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				for _, id := range fl.Names {
					v, ok := pass.TypesInfo.Defs[id].(*types.Var)
					if ok && !v.Exported() && v.Name() != "_" {
						fields = append(fields, v)
					}
				}
			}
			return true
		})
	}
	if len(fields) == 0 {
		return nil
	}
	read := map[*types.Var]bool{}
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[id].(*types.Var)
			if ok && v.IsField() && !writeOnly(pass.TypesInfo, id, stack) {
				read[v.Origin()] = true // a generic type's field, however instantiated
			}
			return true
		})
	}
	for _, v := range fields {
		if !read[v] {
			pass.Reportf(v.Pos(), "field %s is written but never read: delete it, or read it", v.Name())
		}
	}
	return nil
}

// writeOnly reports whether the field identifier id, with ancestors
// stack (root first, parent last), sits where the field is only
// written.
func writeOnly(info *types.Info, id *ast.Ident, stack []ast.Node) bool {
	i := len(stack) - 1
	if i < 0 {
		return false
	}
	if kv, ok := stack[i].(*ast.KeyValueExpr); ok && kv.Key == id && i > 0 {
		if _, ok := stack[i-1].(*ast.CompositeLit); ok {
			return true
		}
	}
	// e is the whole field expression: id itself, or x.id.
	var e ast.Expr = id
	if sel, ok := stack[i].(*ast.SelectorExpr); ok && sel.Sel == id {
		e = sel
		i--
	}
	if i < 0 {
		return false
	}
	if isTarget(e, stack[i]) {
		return true
	}
	switch p := stack[i].(type) {
	case *ast.IndexExpr: // x.f[k] = v
		return p.X == e && i > 0 && isTarget(p, stack[i-1])
	case *ast.CallExpr: // x.f = append(x.f, ...)
		fn, ok := p.Fun.(*ast.Ident)
		if !ok || len(p.Args) == 0 || p.Args[0] != e || i == 0 {
			return false
		}
		if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
			return false
		}
		as, ok := stack[i-1].(*ast.AssignStmt)
		return ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 && as.Rhs[0] == p &&
			types.ExprString(as.Lhs[0]) == types.ExprString(e)
	}
	return false
}

// isTarget reports whether x is assigned by the statement parent.
func isTarget(x ast.Expr, parent ast.Node) bool {
	switch s := parent.(type) {
	case *ast.AssignStmt:
		if s.Tok == token.DEFINE {
			return false
		}
		for _, l := range s.Lhs {
			if l == x {
				return true
			}
		}
	case *ast.IncDecStmt:
		return s.X == x
	}
	return false
}
