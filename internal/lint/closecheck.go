package lint

import (
	"go/ast"
	"go/types"
)

// Closecheck forbids silently dropped errors from Close, Flush and
// net.Conn Write.
//
// On the real TCP stack a failed Close leaks the peer's half of the
// connection, a failed Flush drops batched heartbeats that the relay
// already acked locally, and a failed Conn.Write is the only signal that
// a peer went away. Each of those must be handled or explicitly
// discarded with `_ =` so the discard is visible in review; a bare
// `defer f.Close()` or expression-statement call hides it.
var Closecheck = &Analyzer{
	Name: "closecheck",
	Doc:  "no unchecked error returns from Conn.Write, Close or Flush in the network layer",
	Run:  runClosecheck,
}

func runClosecheck(p *Pass) {
	conn := lookupIface(p.Univ, "net", "Conn")
	check := func(call *ast.CallExpr, how string) {
		fn := callee(p.Pkg.Info, call)
		if fn == nil {
			return
		}
		sig := fn.Type().(*types.Signature)
		if sig.Recv() == nil {
			return
		}
		switch fn.Name() {
		case "Close", "Flush":
			// Only the canonical func() error shape: Close(ctx) variants
			// and multi-result flushes are project-specific enough to
			// handle explicitly.
			if sig.Params().Len() != 0 || !lastResultIsError(sig) || sig.Results().Len() != 1 {
				return
			}
		case "Write":
			if !implementsIface(sig.Recv().Type(), conn) || !lastResultIsError(sig) {
				return
			}
		default:
			return
		}
		p.Reportf(call.Pos(), "%s discards the error from %s.%s; handle it or discard explicitly with `_ =` so the drop survives review", how, recvTypeName(sig), fn.Name())
	}
	for _, f := range p.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					check(call, "expression statement")
				}
			case *ast.DeferStmt:
				check(st.Call, "deferred call")
			case *ast.GoStmt:
				check(st.Call, "go statement")
			}
			return true
		})
	}
}

// lastResultIsError reports whether the signature's final result is error.
func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// recvTypeName renders the receiver type for messages ("*relaynet.Conn").
func recvTypeName(sig *types.Signature) string {
	return types.TypeString(sig.Recv().Type(), func(p *types.Package) string {
		return p.Name()
	})
}
