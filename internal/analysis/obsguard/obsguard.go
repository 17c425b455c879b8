// Package obsguard enforces the zero-cost-when-disabled contract of
// the observability layer (OBSERVABILITY.md): every emit on a
// *obs.Tracer or *obs.Metrics must
//
//  1. go through a pre-resolved pointer — an identifier or a stored
//     field, not a call chain like k.Obs().Tracer().X(...) that pays
//     lookups even when tracing is off;
//  2. sit behind a nil check of that pointer, so argument expressions
//     are not evaluated on the disabled path (the methods themselves
//     are nil-safe, but their arguments are not free); and
//  3. not hoist allocating argument work (fmt.Sprintf and friends)
//     above the guard, where it would run even when disabled.
//
// The canonical shape, used throughout the kernel:
//
//	if tr := k.tracer; tr != nil {
//		tr.ThreadSpawn(...)
//	}
//
// or, for multiple emits, resolve once and early-out:
//
//	tr := mgr.tracer
//	if tr == nil { return }
package obsguard

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// ObsPath is the observability package whose Tracer/Metrics emits are
// guarded. The package itself (and its tests) is exempt.
var ObsPath = "repro/internal/obs"

// queryMethods are nil-safe accessors, not emits: calling them
// unguarded costs nothing when disabled.
var queryMethods = map[string]bool{
	"Samples": true, "Bind": true,
}

// Analyzer is the obsguard analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "obsguard",
	Doc: "obs.Tracer/obs.Metrics emits must use a pre-resolved pointer " +
		"behind a nil check, with no allocating work before the guard",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() == ObsPath {
		return nil
	}
	for _, f := range pass.Files {
		analysis.WithStack(f, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !isEmit(pass, sel) {
				return true
			}
			if pass.IsTestFile(call.Pos()) {
				return true // tests emit against tracers they know are live
			}
			checkEmit(pass, call, sel, stack)
			return true
		})
	}
	return nil
}

// isEmit reports whether sel selects an emit method on *obs.Tracer or
// *obs.Metrics.
func isEmit(pass *analysis.Pass, sel *ast.SelectorExpr) bool {
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.MethodVal {
		return false
	}
	fn, ok := selection.Obj().(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != ObsPath {
		return false
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	name := named.Obj().Name()
	if name != "Tracer" && name != "Metrics" {
		return false
	}
	return ast.IsExported(fn.Name()) && !queryMethods[fn.Name()]
}

func checkEmit(pass *analysis.Pass, call *ast.CallExpr, sel *ast.SelectorExpr, stack []ast.Node) {
	recv := sel.X
	// Rule 1: receiver must be pre-resolved — an identifier or a field
	// chain, never a call.
	if !isResolved(recv) {
		pass.Reportf(call.Pos(),
			"obs emit %s through a call chain: resolve the %s pointer once (e.g. tr := k.Tracer()) and guard it with a nil check",
			sel.Sel.Name, types.ExprString(recv))
		return
	}
	// Rule 2: the emit must be dominated by a nil check of the receiver.
	guard := findGuard(pass, recv, stack)
	if guard == nil {
		pass.Reportf(call.Pos(),
			"unguarded obs emit %s: wrap it in `if %s != nil { ... }` so arguments are not evaluated when observability is disabled",
			sel.Sel.Name, types.ExprString(recv))
		return
	}
	// Rule 3: no allocating argument work hoisted above the guard.
	checkHoistedAllocs(pass, call, guard, stack)
}

// isResolved accepts identifiers and pure selector chains (x.f.g).
func isResolved(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

// sameRef reports whether two receiver expressions refer to the same
// variable: identical objects for identifiers, identical source text
// for selector chains.
func sameRef(pass *analysis.Pass, a, b ast.Expr) bool {
	ai, aok := a.(*ast.Ident)
	bi, bok := b.(*ast.Ident)
	if aok && bok {
		oa, ob := pass.TypesInfo.ObjectOf(ai), pass.TypesInfo.ObjectOf(bi)
		return oa != nil && oa == ob
	}
	return types.ExprString(a) == types.ExprString(b)
}

// findGuard returns the guarding IfStmt that dominates the call: either
// an ancestor `if recv != nil { ...call... }`, or an earlier
// `if recv == nil { return }` in an enclosing block. Returns nil when
// the call is unguarded.
func findGuard(pass *analysis.Pass, recv ast.Expr, stack []ast.Node) *ast.IfStmt {
	// Ancestor if-statements whose condition proves recv non-nil for
	// the branch containing the call.
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		// The call must be in the body (then-branch), not the else.
		child := childOn(stack, i)
		if child == ifs.Body && condProvesNonNil(pass, ifs.Cond, recv) {
			return ifs
		}
		if child == ifs.Else && condProvesNil(pass, ifs.Cond, recv) {
			return ifs
		}
	}
	// Early-out guards: a preceding `if recv == nil { return/... }` in
	// any enclosing block.
	for i := len(stack) - 1; i >= 0; i-- {
		var stmts []ast.Stmt
		switch b := stack[i].(type) {
		case *ast.BlockStmt:
			stmts = b.List
		case *ast.CaseClause:
			stmts = b.Body
		case *ast.CommClause:
			stmts = b.Body
		default:
			continue
		}
		child := childOn(stack, i)
		for _, s := range stmts {
			if s == child {
				break
			}
			ifs, ok := s.(*ast.IfStmt)
			if !ok || ifs.Else != nil {
				continue
			}
			if condProvesNil(pass, ifs.Cond, recv) && terminates(ifs.Body) {
				return ifs
			}
		}
	}
	return nil
}

// childOn returns the element of stack directly below index i (or the
// node under analysis if i is the top of the stack).
func childOn(stack []ast.Node, i int) ast.Node {
	if i+1 < len(stack) {
		return stack[i+1]
	}
	return nil
}

// condProvesNonNil: cond entails recv != nil (conjunctions included).
func condProvesNonNil(pass *analysis.Pass, cond ast.Expr, recv ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condProvesNonNil(pass, c.X, recv)
	case *ast.BinaryExpr:
		if c.Op == token.LAND {
			return condProvesNonNil(pass, c.X, recv) || condProvesNonNil(pass, c.Y, recv)
		}
		return c.Op == token.NEQ && nilCompare(pass, c, recv)
	}
	return false
}

// condProvesNil: cond entails recv == nil.
func condProvesNil(pass *analysis.Pass, cond ast.Expr, recv ast.Expr) bool {
	switch c := cond.(type) {
	case *ast.ParenExpr:
		return condProvesNil(pass, c.X, recv)
	case *ast.BinaryExpr:
		if c.Op == token.LOR {
			return condProvesNil(pass, c.X, recv) || condProvesNil(pass, c.Y, recv)
		}
		return c.Op == token.EQL && nilCompare(pass, c, recv)
	}
	return false
}

// nilCompare reports whether b compares recv against nil.
func nilCompare(pass *analysis.Pass, b *ast.BinaryExpr, recv ast.Expr) bool {
	if isNil(pass, b.Y) && sameRef(pass, b.X, recv) {
		return true
	}
	return isNil(pass, b.X) && sameRef(pass, b.Y, recv)
}

func isNil(pass *analysis.Pass, e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	_, isNilObj := pass.TypesInfo.ObjectOf(id).(*types.Nil)
	return isNilObj
}

// terminates reports whether a block always leaves the enclosing scope.
func terminates(b *ast.BlockStmt) bool {
	if len(b.List) == 0 {
		return false
	}
	switch last := b.List[len(b.List)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.BranchStmt:
		return last.Tok == token.BREAK || last.Tok == token.CONTINUE || last.Tok == token.GOTO
	case *ast.ExprStmt:
		call, ok := last.X.(*ast.CallExpr)
		if !ok {
			return false
		}
		id, ok := call.Fun.(*ast.Ident)
		return ok && id.Name == "panic"
	}
	return false
}

// checkHoistedAllocs flags locals that are computed with allocating
// expressions above the guard but consumed only by the guarded emit:
// the allocation runs even when observability is disabled.
func checkHoistedAllocs(pass *analysis.Pass, call *ast.CallExpr, guard *ast.IfStmt, stack []ast.Node) {
	fn := enclosingFuncBody(stack)
	if fn == nil {
		return
	}
	for _, arg := range call.Args {
		id, ok := arg.(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := pass.TypesInfo.ObjectOf(id).(*types.Var)
		if !ok || obj.Pos() == token.NoPos {
			continue
		}
		// Only locals declared before the guard matter; the guard's own
		// init (if tr := ...; ...) and in-guard locals are fine.
		if obj.Pos() >= guard.Pos() {
			continue
		}
		assign := allocatingAssignment(pass, fn, obj, guard)
		if assign == nil {
			continue
		}
		if !usedOnlyWithin(pass, fn, obj, guard) {
			continue
		}
		pass.Reportf(assign.Pos(),
			"allocating expression assigned to %s before the obs nil-check guard but only used inside it: move it below the guard so disabled runs pay nothing",
			obj.Name())
	}
}

func enclosingFuncBody(stack []ast.Node) *ast.BlockStmt {
	for i := len(stack) - 1; i >= 0; i-- {
		switch f := stack[i].(type) {
		case *ast.FuncDecl:
			return f.Body
		case *ast.FuncLit:
			return f.Body
		}
	}
	return nil
}

// allocatingAssignment finds the assignment to obj (inside fn, before
// the guard) whose right-hand side allocates.
func allocatingAssignment(pass *analysis.Pass, fn *ast.BlockStmt, obj types.Object, guard *ast.IfStmt) *ast.AssignStmt {
	var found *ast.AssignStmt
	ast.Inspect(fn, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Pos() >= guard.Pos() {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || pass.TypesInfo.ObjectOf(lid) != obj {
				continue
			}
			if i < len(as.Rhs) && isAllocating(pass, as.Rhs[i]) {
				found = as
			}
		}
		return true
	})
	return found
}

// isAllocating recognizes the usual suspects: fmt.Sprint*/Errorf,
// strings.Join/Repeat, strconv formatting, string concatenation of
// non-constants, and composite literals.
func isAllocating(pass *analysis.Pass, e ast.Expr) bool {
	alloc := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CompositeLit:
			alloc = true
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := pass.TypesInfo.Types[n]; ok && tv.Value == nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						alloc = true
					}
				}
			}
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil {
				return true
			}
			switch fn.Pkg().Path() {
			case "fmt":
				if strings.HasPrefix(fn.Name(), "Sprint") || fn.Name() == "Errorf" {
					alloc = true
				}
			case "strings":
				if fn.Name() == "Join" || fn.Name() == "Repeat" {
					alloc = true
				}
			case "strconv":
				if strings.HasPrefix(fn.Name(), "Format") || strings.HasPrefix(fn.Name(), "Append") ||
					fn.Name() == "Itoa" || fn.Name() == "Quote" {
					alloc = true
				}
			}
		}
		return true
	})
	return alloc
}

// usedOnlyWithin reports whether every use of obj in fn (other than its
// definition) falls inside the guard statement.
func usedOnlyWithin(pass *analysis.Pass, fn *ast.BlockStmt, obj types.Object, guard *ast.IfStmt) bool {
	only := true
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != obj {
			return true
		}
		if id.Pos() < guard.Pos() || id.End() > guard.End() {
			// A use outside the guard: the value is needed anyway, so
			// computing it early is not a pure obs cost.
			only = false
		}
		return true
	})
	return only
}
