package analysis

import (
	"go/ast"
	"strings"
)

// bitioWidthArg maps bitio helper names to the index of their bit-
// width argument.
var bitioWidthArg = map[string]int{
	"ReadBits":  0,
	"WriteBits": 1,
	"Peek":      0,
	"Skip":      0,
}

func init() {
	Register(&Analyzer{
		Name: "bitwidth",
		Doc: "reports bitio read/write calls with a constant width outside [1,64], " +
			"which silently corrupt SZ/ZFP bit streams (constant over-shifts are " +
			"go vet's shift pass)",
		Run: runBitWidth,
	})
}

func runBitWidth(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkBitioWidth(pass, call)
			}
			return true
		})
	}
	return nil
}

// checkBitioWidth validates constant width arguments of bitio calls.
func checkBitioWidth(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass.Info, call)
	if f == nil || f.Pkg() == nil || !strings.HasSuffix(f.Pkg().Path(), "internal/bitio") {
		return
	}
	idx, ok := bitioWidthArg[f.Name()]
	if !ok || idx >= len(call.Args) {
		return
	}
	width, ok := constInt(pass.Info, call.Args[idx])
	if !ok {
		return
	}
	if width < 1 || width > 64 {
		pass.Reportf(call.Args[idx].Pos(), "bitio.%s width %d outside [1,64]", f.Name(), width)
	}
}
