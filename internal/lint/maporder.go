package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Maporder forbids map iteration whose body feeds an order-sensitive sink.
//
// Go randomizes map iteration order on purpose, so any value that flows
// from a `range someMap` into a trace event, a trace recording, a report
// table row or a digest input lands in a different order on every run —
// the exact bug class that breaks the golden-digest determinism suite the
// moment the kernel goes multi-threaded. The analyzer seeds the sink set
// with the project's ordered outputs (trace.Emit, rec.Recorder recording
// methods, metrics.Table.AddRow, hash.Hash.Write) and propagates "emits
// ordered output" through the module call graph the way lockheld
// propagates blockingness — a helper that records a trace event
// is as order-sensitive as rec.Recorder.Emit itself. The fix is always
// the same: collect the keys, sort them, then range over the sorted slice
// (encoding/json is exempt — it sorts map keys itself).
var Maporder = &Analyzer{
	Name: "maporder",
	Doc:  "no map iteration feeding trace events, recordings, report rows or digests without an intervening sort",
	Run:  runMaporder,
}

// seedOrderReason classifies calls that are order-sensitive sinks by
// themselves: project trace/recording/report APIs and digest writes.
func seedOrderReason(fn *types.Func, call *ast.CallExpr, info *types.Info, module string, hashI *types.Interface) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	full := fullFuncName(fn)
	path, name := fn.Pkg().Path(), fn.Name()
	switch {
	case path == module+"/internal/trace" && name == "Emit":
		return "emits a trace event"
	case path == module+"/internal/rec":
		switch full {
		case path + ".Recorder.Emit":
			return "records a trace event"
		case path + ".Recorder.AddClient":
			return "appends to the trace client table"
		case path + ".Recorder.AddFault":
			return "appends a trace fault window"
		}
	case path == module+"/internal/metrics" && full == path+".Table.AddRow":
		return "appends a report-table row"
	}
	// A Write on anything implementing hash.Hash feeds a digest; the
	// static receiver type decides (the method itself usually resolves to
	// io.Writer.Write, which alone is too broad to seed).
	if name == "Write" && hashI != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if s := info.Selections[sel]; s != nil && implementsIface(s.Recv(), hashI) {
				return "feeds a digest"
			}
		}
	}
	return ""
}

// ordered is the property "emits ordered output": a body has it through
// a seed sink call.
func ordered(module string, hashI *types.Interface) property {
	return property{
		seed: func(info *types.Info, n ast.Node) string {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return ""
			}
			return seedOrderReason(callee(info, call), call, info, module, hashI)
		},
		via: func(fn *types.Func, reason string) string {
			return fmt.Sprintf("calls %s, which %s", fullFuncName(fn), reason)
		},
	}
}

func runMaporder(p *Pass) {
	sinks := ordered(p.Module, lookupIface(p.Univ, "hash", "Hash"))
	facts := p.derive(sinks)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				tv, ok := p.Pkg.Info.Types[rs.X]
				if !ok {
					return true
				}
				if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
					return true
				}
				reason, culprit := sinks.reach(p.Pkg.Info, rs.Body, facts)
				if reason == "" {
					return true
				}
				cpos := p.Pkg.Fset.Position(culprit.Pos())
				p.Reportf(rs.For, "map iteration order is nondeterministic but this loop %s (line %d); collect and sort the keys first so traces, reports and digests stay bit-identical per seed", reason, cpos.Line)
				return true
			})
		}
	}
}
