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

// hashIface resolves the hash.Hash interface from the loaded package
// graph (nil when the dependency closure never touches package hash).
func resolveHashIface(univ []*Package) *types.Interface {
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package) *types.Interface
	walk = func(p *types.Package) *types.Interface {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == "hash" {
			if o := p.Scope().Lookup("Hash"); o != nil {
				iface, _ := o.Type().Underlying().(*types.Interface)
				return iface
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := walk(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	for _, pkg := range univ {
		if iface := walk(pkg.Types); iface != nil {
			return iface
		}
	}
	return nil
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

// orderedFuncs computes (once per run) the module functions that emit
// ordered output, by the same fixed point lockheld uses for blockingness:
// a function is a sink if its body contains a seed sink call or a call to
// a known sink. Function literals and go statements are skipped — a
// literal emits for whoever calls it, on its own schedule.
func (p *Pass) orderedFuncs(module string, hashI *types.Interface) map[*types.Func]string {
	if p.shared.ordered != nil {
		return p.shared.ordered
	}
	type declInfo struct {
		pkg  *Package
		body *ast.BlockStmt
	}
	decls := make(map[*types.Func]declInfo)
	for _, pkg := range p.Univ {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[fn] = declInfo{pkg: pkg, body: fd.Body}
				}
			}
		}
	}
	ordered := make(map[*types.Func]string)
	for changed := true; changed; {
		changed = false
		for fn, di := range decls {
			if _, done := ordered[fn]; done {
				continue
			}
			if reason, _ := bodyOrderReason(di.pkg.Info, di.body, ordered, module, hashI); reason != "" {
				ordered[fn] = reason
				changed = true
			}
		}
	}
	p.shared.ordered = ordered
	return ordered
}

// bodyOrderReason reports why executing the body emits order-sensitive
// output ("" if it does not), plus the call that proves it.
func bodyOrderReason(info *types.Info, body ast.Node, ordered map[*types.Func]string, module string, hashI *types.Interface) (string, *ast.CallExpr) {
	reason := ""
	var culprit *ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch x := n.(type) {
		case *ast.FuncLit:
			return false // emits on its caller's schedule, not this one
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			fn := callee(info, x)
			if fn == nil {
				return true
			}
			if r := seedOrderReason(fn, x, info, module, hashI); r != "" {
				reason, culprit = r, x
			} else if r, ok := ordered[fn]; ok {
				reason, culprit = fmt.Sprintf("calls %s, which %s", fullFuncName(fn), r), x
			}
		}
		return reason == ""
	})
	return reason, culprit
}

func runMaporder(p *Pass) {
	hashI := resolveHashIface(p.Univ)
	ordered := p.orderedFuncs(p.Module, hashI)
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
				reason, culprit := bodyOrderReason(p.Pkg.Info, rs.Body, ordered, p.Module, hashI)
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
