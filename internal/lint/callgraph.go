package lint

import (
	"go/ast"
	"go/types"
	"maps"
)

// callGraph is the run's one interprocedural engine: every function
// declared in the loaded module packages, indexed by its object, and one
// fixed point that carries a property of function bodies up the calls.
// lockheld derives the functions that can block with it, maporder the
// ones that emit ordered output, and goroleak resolves spawned bodies
// through its index.
type callGraph struct {
	decls   map[*types.Func]funcDecl
	derived map[string]map[*types.Func]string // by analyzer name
}

// funcDecl is one declared function's body and the package holding it.
type funcDecl struct {
	pkg  *Package
	body *ast.BlockStmt
}

// newCallGraph indexes every function declaration with a body in univ.
func newCallGraph(univ []*Package) *callGraph {
	g := &callGraph{
		decls:   make(map[*types.Func]funcDecl),
		derived: make(map[string]map[*types.Func]string),
	}
	for _, pkg := range univ {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					g.decls[fn] = funcDecl{pkg: pkg, body: fd.Body}
				}
			}
		}
	}
	return g
}

// property is one thing the fixed point derives. seed gives the reason a
// node has it by itself ("" if it does not); via words a call to a
// function that has it, given that function's own reason.
type property struct {
	seed func(info *types.Info, n ast.Node) string
	via  func(callee *types.Func, reason string) string
}

// reach walks body in source order and returns the first node that has
// the property — the seed says so, or it calls a function in facts — with
// its reason. Function literals and go statements are skipped: a literal
// has the property for whoever calls it, and a go statement returns at
// once. So are the channel operations of a select with a default, which
// does not wait on them; their operands and the clause bodies are walked.
func (prop property) reach(info *types.Info, body ast.Node, facts map[*types.Func]string) (string, ast.Node) {
	var reason string
	var at ast.Node
	polled := make(map[ast.Node]bool) // comm ops of selects with a default
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.SelectStmt:
			if selectHasDefault(x) {
				for _, c := range x.Body.List {
					if op := commOp(c.(*ast.CommClause).Comm); op != nil {
						polled[op] = true
					}
				}
			}
		}
		if polled[n] {
			return true
		}
		if r := prop.seed(info, n); r != "" {
			reason, at = r, n
		} else if call, ok := n.(*ast.CallExpr); ok {
			if fn := callee(info, call); fn != nil {
				if r, ok := facts[fn]; ok {
					reason, at = prop.via(fn, r), n
				}
			}
		}
		return reason == ""
	})
	return reason, at
}

// commOp returns the channel operation of a select clause's comm
// statement: the send itself, or the receive expression (nil for default).
func commOp(comm ast.Stmt) ast.Node {
	switch c := comm.(type) {
	case *ast.SendStmt:
		return c
	case *ast.ExprStmt:
		return ast.Unparen(c.X)
	case *ast.AssignStmt:
		return ast.Unparen(c.Rhs[0])
	}
	return nil
}

// fixedPoint returns every declared function whose body reaches the
// property, each with its reason. Each round reads only the facts of the
// rounds before it, so a function's reason names the first call in its
// body along a shortest chain, whatever order the index is walked in.
func (g *callGraph) fixedPoint(prop property) map[*types.Func]string {
	facts := make(map[*types.Func]string)
	for {
		found := make(map[*types.Func]string)
		for fn, d := range g.decls {
			if _, done := facts[fn]; done {
				continue
			}
			if reason, _ := prop.reach(d.pkg.Info, d.body, facts); reason != "" {
				found[fn] = reason
			}
		}
		if len(found) == 0 {
			return facts
		}
		maps.Copy(facts, found)
	}
}

// derive returns the fixed point of prop over the run's call graph. It is
// computed on the analyzer's first package and reused for the rest: an
// analyzer derives one property per run.
func (p *Pass) derive(prop property) map[*types.Func]string {
	facts, ok := p.graph.derived[p.Analyzer.Name]
	if !ok {
		facts = p.graph.fixedPoint(prop)
		p.graph.derived[p.Analyzer.Name] = facts
	}
	return facts
}

// callee resolves a call expression to the called *types.Func, if any.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// fullFuncName renders "import/path.Func" or "import/path.Type.Method".
func fullFuncName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	name := fn.Pkg().Path() + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			name += named.Obj().Name() + "."
		}
	}
	return name + fn.Name()
}

// lookupIface finds the interface type path.name among the packages the
// module packages import, directly or not (nil when none reaches path).
func lookupIface(univ []*Package, path, name string) *types.Interface {
	seen := make(map[*types.Package]bool)
	var find func(pkg *types.Package) *types.Package
	find = func(pkg *types.Package) *types.Package {
		if seen[pkg] {
			return nil
		}
		seen[pkg] = true
		if pkg.Path() == path {
			return pkg
		}
		for _, imp := range pkg.Imports() {
			if found := find(imp); found != nil {
				return found
			}
		}
		return nil
	}
	for _, u := range univ {
		if pkg := find(u.Types); pkg != nil {
			if o := pkg.Scope().Lookup(name); o != nil {
				iface, _ := o.Type().Underlying().(*types.Interface)
				return iface
			}
			return nil
		}
	}
	return nil
}

// implementsIface reports whether t (or *t) implements the interface.
func implementsIface(t types.Type, iface *types.Interface) bool {
	if iface == nil {
		return false
	}
	if types.Implements(t, iface) {
		return true
	}
	if _, ok := t.(*types.Pointer); !ok {
		return types.Implements(types.NewPointer(t), iface)
	}
	return false
}
