package lint

import (
	"go/ast"
	"go/types"
)

// Shared AST/type helpers for the analyzers.

// isNamedType reports whether t (after pointer indirection) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != name {
		return false
	}
	return obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// receiverOf returns the method call's receiver expression and method
// name, or nil/"" when the call is not of the form expr.Method(...).
func receiverOf(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// parentMap records each node's syntactic parent within a file.
type parentMap map[ast.Node]ast.Node

func buildParents(f *ast.File) parentMap {
	parents := parentMap{}
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

// enclosingFunc walks up the parent chain to the nearest function
// declaration or literal containing n; the bool distinguishes a
// FuncDecl (true) from a FuncLit (false). Returns nil, nil, false at
// file scope.
func enclosingFunc(parents parentMap, n ast.Node) (*ast.FuncDecl, *ast.FuncLit, bool) {
	for p := parents[n]; p != nil; p = parents[p] {
		switch f := p.(type) {
		case *ast.FuncDecl:
			return f, nil, true
		case *ast.FuncLit:
			return nil, f, false
		}
	}
	return nil, nil, false
}

// walkOutsideFuncLits visits every node under root except the bodies
// of nested function literals, which run on their own schedule.
func walkOutsideFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
