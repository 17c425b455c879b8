// Package hotpathalloc is the allocation-free hot-path enforcer. The
// packet path is the paper's whole performance story: Scout survives
// overload because the per-packet cost is small and constant, and a
// single heap allocation per event or per packet quietly destroys that
// (GC pressure is a resource the attacker spends on our behalf). The
// analyzer flags allocating expressions in the hot packages:
//
//   - fmt.Sprint/Sprintf/Sprintln/Errorf calls,
//   - make of maps, channels, and slices, and new(T),
//   - slice and map composite literals, and &T{...} (escaping
//     composites), string concatenation with +,
//   - capturing closures (a func literal that closes over local
//     variables allocates its environment),
//   - interface boxing: passing a non-pointer concrete value to an
//     interface parameter or converting one to an interface type,
//   - unbounded growth: append assigned to a struct field.
//
// Three exemptions keep the signal honest:
//
//   - Cold branches: a CFG block from which every path exits through a
//     non-nil error return or a panic is setup/teardown, not packet
//     path (allocation-on-failure is fine — the connection is dying).
//     An error return counts as non-nil only when that is provable
//     from the return itself: a fmt.Errorf or errors.New call, a
//     composite literal, a package-level sentinel, or a variable
//     returned inside an `if v != nil` branch on that same variable.
//     `return err` with err possibly nil is a hot exit.
//   - Observability guards: allocations inside `if tr != nil { ... }`
//     bodies, where the guarded value is an obs type, are zero-cost
//     when tracing is disabled (the obsguard analyzer enforces that
//     separately).
//   - //escort:coldpath on the allocation's line, the line above, or
//     the function declaration exempts deliberate slow paths (arena
//     growth, constructors living in a hot package). Like
//     //escort:held, it is a greppable claim, not a silent opt-out.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/cfg"
)

// HotPackages lists the import paths whose non-test code must not
// allocate outside cold branches. ObsPath marks guard types. Tests
// override both to point at fixtures.
var (
	HotPackages = []string{
		"repro/internal/sim",
		"repro/internal/netsim",
		"repro/internal/iobuf",
		"repro/internal/kernel",
		"repro/internal/path",
	}
	ObsPath = "repro/internal/obs"
)

// Analyzer is the hotpathalloc analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc: "hot-path packages must not allocate outside cold (error/panic) " +
		"branches, observability guards, and //escort:coldpath exemptions",
	Run: run,
}

func run(pass *analysis.Pass) error {
	hot := false
	for _, p := range HotPackages {
		if pass.Pkg.Path() == p {
			hot = true
		}
	}
	if !hot {
		return nil
	}
	c := &checker{pass: pass, comments: map[string]analysis.LineComments{}}
	for i, f := range pass.Files {
		c.comments[pass.FileNames[i]] = analysis.CollectLineComments(pass.Fset, f)
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			if c.coldAt(fd.Pos()) {
				continue // whole function declared cold
			}
			c.checkFunc(fd)
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	comments map[string]analysis.LineComments
}

// coldAt reports an //escort:coldpath annotation at pos.
func (c *checker) coldAt(pos token.Pos) bool {
	p := c.pass.Fset.Position(pos)
	lc := c.comments[p.Filename]
	return lc != nil && lc.HasAnnotation(p.Line, "coldpath", "")
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	g := cfg.New(fd.Body)
	cold := c.coldBlocks(fd, g)
	guards := c.obsGuardRanges(fd)
	reach := g.Reachable()
	for _, b := range g.Blocks {
		if !reach[b] || cold[b] {
			continue
		}
		for _, n := range b.Nodes {
			c.scanAllocs(n, guards)
		}
	}
}

// ---- cold-branch computation ----

// coldBlocks marks blocks from which EVERY path ends in a non-nil
// error return or a panic: allocation there prices failure, not the
// packet path. Computed as a reverse-postorder fixpoint over the CFG.
func (c *checker) coldBlocks(fd *ast.FuncDecl, g *cfg.Graph) map[*cfg.Block]bool {
	nonNil := c.nonNilBranches(fd)
	retErr := false
	if res := fd.Type.Results; res != nil && len(res.List) > 0 {
		last := res.List[len(res.List)-1]
		if tv, ok := c.pass.TypesInfo.Types[last.Type]; ok && tv.Type != nil &&
			tv.Type.String() == "error" {
			retErr = true
		}
	}
	coldExit := func(b *cfg.Block) (bool, bool) { // (isExitBlock, isCold)
		if b.IsPanic {
			return true, true
		}
		if b.Return == nil {
			return false, false
		}
		if !retErr || len(b.Return.Results) == 0 {
			return true, false // success or bare return: hot exit
		}
		last := b.Return.Results[len(b.Return.Results)-1]
		return true, c.provablyNonNil(last, b.Return.Pos(), nonNil)
	}
	cold := map[*cfg.Block]bool{}
	// Iterate to fixpoint: cold(b) = own cold exit, or (has successors
	// other than Exit and all of them cold). Falling off the body end
	// (an edge to Exit without a return) is a hot exit.
	changed := true
	for changed {
		changed = false
		for _, b := range g.Blocks {
			if cold[b] {
				continue
			}
			isExit, isCold := coldExit(b)
			v := false
			if isExit {
				v = isCold
			} else if len(b.Succs) > 0 {
				v = true
				for _, s := range b.Succs {
					if s == g.Exit || !cold[s] {
						v = false
					}
				}
			}
			if v {
				cold[b] = true
				changed = true
			}
		}
	}
	return cold
}

// provablyNonNil reports whether the returned error e cannot be nil:
// a constructor call (fmt.Errorf, errors.New), a composite literal, a
// package-level sentinel, or a variable returned at pos inside an
// `if v != nil` branch on that variable.
func (c *checker) provablyNonNil(e ast.Expr, pos token.Pos, nonNil map[types.Object][]posRange) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); fn != nil && fn.Pkg() != nil {
				name := fn.Pkg().Path() + "." + fn.Name()
				return name == "fmt.Errorf" || name == "errors.New"
			}
		}
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		_, lit := ast.Unparen(x.X).(*ast.CompositeLit)
		return x.Op == token.AND && lit
	case *ast.SelectorExpr:
		return isSentinel(c.pass.TypesInfo.Uses[x.Sel])
	case *ast.Ident:
		v := c.pass.TypesInfo.Uses[x]
		if isSentinel(v) {
			return true
		}
		for _, r := range nonNil[v] {
			if r.lo <= pos && pos < r.hi {
				return true
			}
		}
	}
	return false
}

// isSentinel reports a package-level variable, such as ErrPathDead.
func isSentinel(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// nonNilBranches maps each variable to the bodies of `if v != nil`
// statements (alone or as a conjunct) that test it.
func (c *checker) nonNilBranches(fd *ast.FuncDecl) map[types.Object][]posRange {
	out := map[types.Object][]posRange{}
	var conds func(e ast.Expr, body *ast.BlockStmt)
	conds = func(e ast.Expr, body *ast.BlockStmt) {
		be, ok := ast.Unparen(e).(*ast.BinaryExpr)
		if !ok {
			return
		}
		switch be.Op {
		case token.LAND:
			conds(be.X, body)
			conds(be.Y, body)
		case token.NEQ:
			for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
				id, isID := ast.Unparen(pair[0]).(*ast.Ident)
				if nilSide, ok := c.pass.TypesInfo.Types[pair[1]]; isID && ok && nilSide.IsNil() {
					if v := c.pass.TypesInfo.Uses[id]; v != nil {
						out[v] = append(out[v], posRange{body.Pos(), body.End()})
					}
				}
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ifs, ok := n.(*ast.IfStmt); ok {
			conds(ifs.Cond, ifs.Body)
		}
		return true
	})
	return out
}

// ---- observability guard ranges ----

type posRange struct{ lo, hi token.Pos }

// obsGuardRanges collects body ranges of `if x != nil { ... }` guards
// where x is an obs-package type: tracing and metrics are nil when
// disabled, so the guarded code is off the hot path by construction.
func (c *checker) obsGuardRanges(fd *ast.FuncDecl) []posRange {
	var out []posRange
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if c.condProvesObsNonNil(ifs.Cond) {
			out = append(out, posRange{ifs.Body.Pos(), ifs.Body.End()})
		}
		return true
	})
	return out
}

func (c *checker) condProvesObsNonNil(e ast.Expr) bool {
	be, ok := e.(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch be.Op {
	case token.NEQ:
		return c.obsNilCompare(be.X, be.Y) || c.obsNilCompare(be.Y, be.X)
	case token.LAND:
		return c.condProvesObsNonNil(be.X) || c.condProvesObsNonNil(be.Y)
	}
	return false
}

func (c *checker) obsNilCompare(val, nilSide ast.Expr) bool {
	if tv, ok := c.pass.TypesInfo.Types[nilSide]; !ok || !tv.IsNil() {
		return false
	}
	tv, ok := c.pass.TypesInfo.Types[val]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == ObsPath
}

// ---- allocation sites ----

func (c *checker) exempt(pos token.Pos, guards []posRange) bool {
	if c.coldAt(pos) {
		return true
	}
	for _, r := range guards {
		if r.lo <= pos && pos < r.hi {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, format string, args ...any) {
	c.pass.Reportf(pos, "hot path allocates: "+format+
		" — hoist it, pool it, or annotate a deliberate slow path //escort:coldpath", args...)
}

// scanAllocs walks one CFG node (a leaf statement or expression) for
// allocating expressions. Capturing closures are reported and not
// entered; non-capturing ones are scanned inside.
func (c *checker) scanAllocs(node ast.Node, guards []posRange) {
	// Field-append detection needs assignment context.
	if as, ok := node.(*ast.AssignStmt); ok {
		for i, rhs := range as.Rhs {
			if call, ok := rhs.(*ast.CallExpr); ok && c.isBuiltin(call, "append") && i < len(as.Lhs) {
				if sel, ok := as.Lhs[i].(*ast.SelectorExpr); ok &&
					!c.selfAppend(as.Lhs[i], call) && !c.exempt(call.Pos(), guards) {
					c.report(call.Pos(), "append growing field %s is unbounded per-packet state",
						types.ExprString(sel))
				}
			}
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if c.capturing(n) {
				if !c.exempt(n.Pos(), guards) {
					c.report(n.Pos(), "closure captures enclosing variables (environment allocation)")
				}
				return false
			}
			return true // non-capturing: scan its body like straight-line code
		case *ast.CallExpr:
			c.checkCall(n, guards)
		case *ast.CompositeLit:
			if tv, ok := c.pass.TypesInfo.Types[n]; ok && tv.Type != nil {
				switch tv.Type.Underlying().(type) {
				case *types.Slice:
					if !c.exempt(n.Pos(), guards) {
						c.report(n.Pos(), "slice literal %s", types.ExprString(n.Type))
					}
				case *types.Map:
					if !c.exempt(n.Pos(), guards) {
						c.report(n.Pos(), "map literal %s", types.ExprString(n.Type))
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok && !c.exempt(n.Pos(), guards) {
					c.report(n.Pos(), "&composite literal escapes to the heap")
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD {
				if tv, ok := c.pass.TypesInfo.Types[n]; ok && tv.Type != nil {
					if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
						// Constant folding is free; only flag non-constant concatenation.
						if tv.Value == nil && !c.exempt(n.Pos(), guards) {
							c.report(n.Pos(), "string concatenation builds a new string")
						}
					}
				}
			}
		}
		return true
	})
}

// capturing reports whether the func literal closes over variables
// declared outside it (excluding package-level variables, which are
// accessed directly, not captured).
func (c *checker) capturing(fl *ast.FuncLit) bool {
	captures := false
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent().Parent() == types.Universe {
			return true // package-level
		}
		if v.Pos() < fl.Pos() || v.Pos() >= fl.End() {
			captures = true
		}
		return true
	})
	return captures
}

// selfAppend recognizes the in-place removal idiom
// f = append(f[:i], f[j:]...): both arguments reslice the destination
// itself, so the call shifts elements within the existing backing array
// and never allocates.
func (c *checker) selfAppend(lhs ast.Expr, call *ast.CallExpr) bool {
	if len(call.Args) != 2 || !call.Ellipsis.IsValid() {
		return false
	}
	want := types.ExprString(lhs)
	for _, a := range call.Args {
		se, ok := a.(*ast.SliceExpr)
		if !ok || types.ExprString(se.X) != want {
			return false
		}
	}
	return true
}

func (c *checker) isBuiltin(call *ast.CallExpr, name string) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, isB := c.pass.TypesInfo.Uses[id].(*types.Builtin)
	return isB
}

func (c *checker) checkCall(call *ast.CallExpr, guards []posRange) {
	// fmt formatting.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if fn, _ := c.pass.TypesInfo.Uses[sel.Sel].(*types.Func); fn != nil &&
			fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln", "Errorf":
				if !c.exempt(call.Pos(), guards) {
					c.report(call.Pos(), "fmt.%s formats into a fresh string", fn.Name())
				}
			}
		}
	}
	// make / new.
	if c.isBuiltin(call, "make") && len(call.Args) > 0 {
		if tv, ok := c.pass.TypesInfo.Types[call.Args[0]]; ok && tv.Type != nil {
			kind := ""
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				kind = "slice"
			case *types.Map:
				kind = "map"
			case *types.Chan:
				kind = "channel"
			}
			if kind != "" && !c.exempt(call.Pos(), guards) {
				c.report(call.Pos(), "make allocates a %s", kind)
			}
		}
	}
	if c.isBuiltin(call, "new") && !c.exempt(call.Pos(), guards) {
		c.report(call.Pos(), "new(T) allocates")
	}
	// Interface boxing at call arguments: a non-pointer concrete value
	// handed to an interface parameter allocates the boxed copy.
	c.checkBoxing(call, guards)
}

func (c *checker) checkBoxing(call *ast.CallExpr, guards []posRange) {
	tv, ok := c.pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	// Explicit conversion to an interface type: T(x).
	if tv.IsType() {
		if _, isIface := tv.Type.Underlying().(*types.Interface); isIface && len(call.Args) == 1 {
			if c.boxes(call.Args[0]) && !c.exempt(call.Pos(), guards) {
				c.report(call.Pos(), "conversion boxes %s into an interface",
					types.ExprString(call.Args[0]))
			}
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		if call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...) passes the slice through; nothing is boxed
		}
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		if c.boxes(arg) && !c.exempt(arg.Pos(), guards) {
			c.report(arg.Pos(), "argument %s is boxed into interface parameter",
				types.ExprString(arg))
		}
	}
}

// boxes reports whether passing e to an interface allocates: true for
// concrete non-pointer values; false for interfaces, pointers,
// channels/maps/funcs (pointer-shaped), and untyped nil.
func (c *checker) boxes(e ast.Expr) bool {
	tv, ok := c.pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	}
	return true
}
