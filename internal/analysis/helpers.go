package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
)

// calleeFunc resolves the *types.Func a call invokes, or nil for
// calls through function values, conversions, and builtins.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// resultsWithError reports whether the call yields an error (alone or
// as any member of its result tuple).
func resultsWithError(info *types.Info, call *ast.CallExpr) bool {
	tv, ok := info.Types[call]
	if !ok || tv.Type == nil {
		return false
	}
	switch t := tv.Type.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return isErrorType(t)
	}
}

// constInt extracts an integer constant value from an expression when
// the type checker proved one.
func constInt(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// basicInt returns the *types.Basic for t when it is (or is named
// with underlying) a fixed or platform integer type.
func basicInt(t types.Type) (*types.Basic, bool) {
	b, ok := t.Underlying().(*types.Basic)
	if !ok || b.Info()&types.IsInteger == 0 || b.Info()&types.IsUntyped != 0 {
		return nil, false
	}
	return b, true
}

// intBits returns the width in bits of a basic integer type on the
// gc/amd64 layout the repository targets.
func intBits(b *types.Basic) int {
	switch b.Kind() {
	case types.Int8, types.Uint8:
		return 8
	case types.Int16, types.Uint16:
		return 16
	case types.Int32, types.Uint32:
		return 32
	default: // int, uint, int64, uint64, uintptr
		return 64
	}
}

// isSigned reports signedness of a basic integer type.
func isSigned(b *types.Basic) bool { return b.Info()&types.IsUnsigned == 0 }

// enclosingFuncs yields every function declaration and literal in the
// file set of a pass, invoking fn with the node and its body.
func enclosingFuncs(files []*ast.File, fn func(node ast.Node, body *ast.BlockStmt)) {
	for _, file := range files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch d := n.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(d, d.Body)
				}
			case *ast.FuncLit:
				fn(d, d.Body)
			}
			return true
		})
	}
}
