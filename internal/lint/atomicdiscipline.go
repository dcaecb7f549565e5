package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicDiscipline enforces the Go memory model's all-or-nothing rule
// for function-style sync/atomic usage: a variable or field that is
// accessed through sync/atomic anywhere must be accessed through
// sync/atomic everywhere, because one plain read racing one atomic
// write is still a data race. The deque and job-state code moved to
// atomic.Int64 method types (which make mixed access unrepresentable),
// but the runtime still has function-style sites — per-worker
// iteration tallies in the local engines — and the distributed
// chunk-calculation direction in ROADMAP will add more one-sided
// atomic state, so the discipline needs machine checking.
//
// Publication-pattern allowance: a plain access is accepted when the
// surrounding function provides ordering that makes it race-free —
// either every `go` statement of the function comes after the access
// (initialisation before spawn), or join evidence (a sync.WaitGroup
// Wait or a channel receive) appears earlier in the same function
// (read after join): workers' atomic adds, one plain read per worker
// after wg.Wait. Anything subtler — deliberate torn
// reads validated by a CAS, cross-function publication — must carry a
// //lint:loopsched-ignore atomicdiscipline directive with its
// justification.
var AtomicDiscipline = &Analyzer{
	Name: "atomicdiscipline",
	Doc: "a field accessed via sync/atomic anywhere must be accessed atomically everywhere; " +
		"plain access is allowed only before goroutine start or after join evidence",
	Run: runAtomicDiscipline,
}

// atomicTarget records how one object is atomically accessed.
type atomicTarget struct {
	// ptrOnly: the object is itself a pointer handed to sync/atomic
	// (atomic.AddInt64(p, 1)), so only *p dereferences are value
	// accesses; passing p around is not.
	ptrOnly  bool
	firstPos token.Pos
}

func runAtomicDiscipline(pass *Pass) error {
	info := pass.TypesInfo

	// Phase 1: find every function-style sync/atomic call, resolve its
	// first argument to the object it targets, and remember the full
	// argument expressions (their identifiers are atomic accesses, not
	// plain ones).
	targets := map[types.Object]*atomicTarget{}
	atomicArgs := map[ast.Node]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !isSyncAtomicFunc(info, call) {
				return true
			}
			arg := call.Args[0]
			atomicArgs[arg] = true
			ptrOnly := true
			target := arg
			if u, ok := arg.(*ast.UnaryExpr); ok && u.Op == token.AND {
				target = u.X
				ptrOnly = false
			}
			obj := atomicTargetObj(info, target)
			if obj == nil {
				return true
			}
			if t, ok := targets[obj]; ok {
				// Keep the strongest claim: an &x site means plain uses
				// of x itself are value accesses.
				if !ptrOnly {
					t.ptrOnly = false
				}
			} else {
				targets[obj] = &atomicTarget{ptrOnly: ptrOnly, firstPos: call.Pos()}
			}
			return true
		})
	}
	if len(targets) == 0 {
		return nil
	}

	// Phase 2: every other use of a targeted object is a plain access;
	// flag it unless the publication allowance applies.
	for _, f := range pass.Files {
		parents := buildParents(f)
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := info.Uses[id]
			if obj == nil {
				return true // Defs are declarations, not accesses
			}
			t, ok := targets[obj]
			if !ok {
				return true
			}
			for p := ast.Node(id); p != nil; p = parents[p] {
				if atomicArgs[p] {
					return true // part of a sync/atomic call's target
				}
			}
			if t.ptrOnly && !isDerefUse(parents, id) {
				return true // moving the pointer around is not a value access
			}
			if plainAccessAllowed(info, parents, id) {
				return true
			}
			pass.Report(id.Pos(),
				"%s is accessed via sync/atomic (%s) but accessed plainly here: "+
					"mixed atomic/plain access is a data race; use atomic ops, or move this access "+
					"before goroutine start / after join",
				obj.Name(), pass.Fset.Position(t.firstPos))
			return true
		})
	}
	return nil
}

// isSyncAtomicFunc reports whether the call is a package-level
// sync/atomic function (AddInt64, LoadPointer, …). Methods on the
// atomic.Int64-style types are excluded: those types make plain access
// unrepresentable, which is the discipline this analyzer asks for.
func isSyncAtomicFunc(info *types.Info, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}

// atomicTargetObj resolves the object an atomic access targets,
// unwrapping indexing and dereferencing down to the named field or
// variable: &s.counters[i].Steals → the Steals field, &iters[id] → the
// iters variable, p → the p variable.
func atomicTargetObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok {
				return sel.Obj()
			}
			return info.Uses[x.Sel]
		case *ast.Ident:
			if o := info.Uses[x]; o != nil {
				return o
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}

// isDerefUse reports whether the identifier is dereferenced (*p or
// p[i]) rather than merely mentioned.
func isDerefUse(parents parentMap, id *ast.Ident) bool {
	for p := parents[id]; p != nil; p = parents[p] {
		switch x := p.(type) {
		case *ast.StarExpr:
			return true
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr, *ast.ParenExpr:
			_ = x
			continue
		default:
			return false
		}
	}
	return false
}

// plainAccessAllowed applies the publication allowance: within the
// access's enclosing function (literal bodies are their own scope),
// the access is race-free if join evidence — a sync.WaitGroup Wait
// call or a channel receive — appears earlier in source order, or if
// the function spawns goroutines and every `go` statement comes after
// the access (initialisation before spawn). A function with no `go`
// statements and no join evidence gets no allowance: it may be called
// concurrently with the atomic writers.
func plainAccessAllowed(info *types.Info, parents parentMap, id *ast.Ident) bool {
	decl, lit, isDecl := enclosingFunc(parents, id)
	var body *ast.BlockStmt
	switch {
	case isDecl && decl.Body != nil:
		body = decl.Body
	case lit != nil:
		body = lit.Body
	default:
		return false
	}
	pos := id.Pos()
	joined := false
	spawns, spawnsBefore := false, false
	walkOutsideFuncLits(body, func(n ast.Node) {
		switch x := n.(type) {
		case *ast.GoStmt:
			spawns = true
			if x.Pos() < pos {
				spawnsBefore = true
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && x.Pos() < pos {
				joined = true // channel receive: join evidence, as in gojoin
			}
		case *ast.CallExpr:
			if x.Pos() >= pos {
				return
			}
			recv, method := receiverOf(x)
			if method != "Wait" || recv == nil {
				return
			}
			if tv, ok := info.Types[recv]; ok && isNamedType(tv.Type, "sync", "WaitGroup") {
				joined = true
			}
		}
	})
	if joined {
		return true
	}
	return spawns && !spawnsBefore
}
