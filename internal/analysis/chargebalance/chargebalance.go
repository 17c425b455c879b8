// Package chargebalance machine-checks the accounting invariant behind
// the paper's Table 1 ("virtually 100% of cycles charged to the right
// owner"): resources charged to a core.Owner must be given back. For
// every function it verifies, per resource kind (Kmem, Pages, Stacks,
// Event, Semaphore), that a Charge* call is balanced by one of:
//
//   - a matching Refund* / ReleaseAll on the same path (or deferred),
//   - handing the object to the owner's tracking lists via Track
//     (ReleaseAll refunds it at teardown — the constructor pattern),
//   - passing the charged owner to a releasing function (one whose body
//     refunds/releases, e.g. reclaim, DestroyOwner), or
//   - the charged owner escaping through a return value (the caller
//     now holds the balance — the msg.New pattern).
//
// Since v2 the analysis is path-sensitive: it builds each function's
// control-flow graph (internal/analysis/cfg) and solves a forward
// may-outstanding problem plus a backward may-discharge problem over it
// (internal/analysis/dataflow, via the shared event model in
// internal/analysis/charges). Two rules are enforced:
//
//  1. An error return reachable with a charge still outstanding on some
//     path — and no deferred refund registered on every path to it — is
//     flagged: this is exactly the churn bug ("early return added,
//     refund forgotten") that re-opens accounting gaps. The CFG makes
//     this exact across goto, labeled break/continue, switch
//     fallthrough, and loops, where the v1 structured walk
//     approximated.
//  2. A charge from whose site no CFG path reaches any discharge
//     (refund, release, track, releasing call, or escape through a
//     return) — and that no defer or closure in the function covers —
//     can never be returned, and is flagged at the charge site.
//
// A charge that is intentionally held by a containing object and
// refunded elsewhere is annotated at the charge site:
//
//	//escort:held TCB kmem refunded in close
//
// The annotation is a claim reviewers can grep, not a silent opt-out.
//
// The package also flags raw allocation of tracked kernel object types
// (implementers of core.Tracked) in the resource-managing packages:
// constructing one outside a function that calls owner.Track bypasses
// the ledger entirely.
package chargebalance

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/charges"
)

// AllocScope lists import-path prefixes where raw allocation of Tracked
// types is flagged. Tests override it to point at fixtures. CorePath
// (the package defining Owner and Tracked) lives in the shared charges
// package.
var AllocScope = []string{"repro/internal/kernel", "repro/internal/mem", "repro/internal/iobuf"}

// Analyzer is the chargebalance analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "chargebalance",
	Doc: "every Charge* on a core.Owner must be balanced on every CFG path by " +
		"Refund*/ReleaseAll/Track, a releasing call, or escape of the charged " +
		"owner; tracked kernel objects must not be allocated raw",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{pass: pass, sc: charges.NewScanner(pass)}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.IsTestFile(fd.Pos()) {
				continue
			}
			c.checkFunc(fd)
			c.checkRawAllocs(fd)
		}
	}
	return nil
}

type checker struct {
	pass *analysis.Pass
	sc   *charges.Scanner
}

// checkFunc builds the function's CFG, solves the charge dataflow, and
// applies both rules.
func (c *checker) checkFunc(fd *ast.FuncDecl) {
	fr := charges.Analyze(c.sc, fd)
	if len(fr.Charges) == 0 {
		return
	}
	retErr := false
	if res := fd.Type.Results; res != nil && len(res.List) > 0 {
		last := res.List[len(res.List)-1]
		if tv, ok := c.pass.TypesInfo.Types[last.Type]; ok && tv.Type != nil &&
			tv.Type.String() == "error" {
			retErr = true
		}
	}

	// Rule 1: error returns with a may-outstanding charge. One report
	// per return keeps the signal readable — fixing the first leak
	// usually fixes the path.
	if retErr {
		flagged := map[token.Pos]bool{}
		for _, rf := range fr.Returns() {
			if len(rf.Ret.Results) == 0 {
				continue
			}
			last := rf.Ret.Results[len(rf.Ret.Results)-1]
			if tv, ok := c.pass.TypesInfo.Types[last]; ok && tv.IsNil() {
				continue // success return: the caller holds the balance
			}
			for _, i := range rf.Outstanding {
				ch := fr.Charges[i]
				if ch.Held {
					continue
				}
				if rf.DeferAll || rf.DeferredRes[ch.Res] {
					continue
				}
				if ch.Base != nil && charges.Escapes(c.pass, ch.Base, rf.Ret) {
					continue
				}
				if flagged[rf.Ret.Pos()] {
					continue
				}
				flagged[rf.Ret.Pos()] = true
				chPos := c.pass.Fset.Position(ch.Pos)
				c.pass.Reportf(rf.Ret.Pos(),
					"error return leaks Charge%s from line %d: refund, ReleaseAll, or release the owner before returning (or annotate the charge //escort:held)",
					ch.Res, chPos.Line)
			}
		}
	}

	// Rule 2: no CFG path from the charge site reaches a discharge, and
	// no defer or closure covers it either.
	for i, ch := range fr.Charges {
		if ch.Held {
			continue
		}
		if fr.MayDischargeAt(i) || fr.AnyDeferDischarges(ch) || fr.AnyClosureDischarges(ch) {
			continue
		}
		c.pass.Reportf(ch.Pos,
			"Charge%s is never balanced in this function: no Refund%s, ReleaseAll, Track, releasing call, or escape of the charged owner — refund it or annotate the held charge with //escort:held <where it is refunded>",
			ch.Res, ch.Res)
	}
}

// ---- raw allocation of tracked types ----

// checkRawAllocs flags composite literals and new() of types that
// implement core.Tracked, outside functions that call owner.Track.
func (c *checker) checkRawAllocs(fd *ast.FuncDecl) {
	inScope := false
	for _, p := range AllocScope {
		if strings.HasPrefix(c.pass.Pkg.Path(), p) {
			inScope = true
		}
	}
	if !inScope {
		return
	}
	tracked := c.trackedInterface()
	if tracked == nil {
		return
	}
	tracks := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Track" && c.sc.IsOwnerMethod(sel) {
			tracks = true
		}
		return true
	})
	if tracks {
		return // the blessed constructor: it records ownership
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		var t types.Type
		var pos token.Pos
		switch n := n.(type) {
		case *ast.CompositeLit:
			if tv, ok := c.pass.TypesInfo.Types[n]; ok {
				t, pos = tv.Type, n.Pos()
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "new" && len(n.Args) == 1 {
				if _, isB := c.pass.TypesInfo.Uses[id].(*types.Builtin); isB {
					if tv, ok := c.pass.TypesInfo.Types[n.Args[0]]; ok {
						t, pos = tv.Type, n.Pos()
					}
				}
			}
		}
		if t == nil {
			return true
		}
		if _, isStruct := t.Underlying().(*types.Struct); !isStruct {
			return true
		}
		if types.Implements(types.NewPointer(t), tracked) {
			if c.sc.Held(pos) {
				return true
			}
			c.pass.Reportf(pos,
				"raw allocation of tracked type %s bypasses the ledger: construct it in a charging constructor that calls owner.Track",
				types.TypeString(t, types.RelativeTo(c.pass.Pkg)))
		}
		return true
	})
}

// trackedInterface finds core.Tracked among the package's imports.
func (c *checker) trackedInterface() *types.Interface {
	for _, imp := range c.pass.Pkg.Imports() {
		if imp.Path() != charges.CorePath {
			continue
		}
		obj := imp.Scope().Lookup("Tracked")
		if obj == nil {
			return nil
		}
		iface, _ := obj.Type().Underlying().(*types.Interface)
		return iface
	}
	return nil
}
