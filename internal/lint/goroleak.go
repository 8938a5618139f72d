package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Goroleak forbids shutdown-less goroutines in stoppable types.
//
// A type that offers Stop/Close/Shutdown promises its resources die with
// it. A `go` statement in one of its methods whose goroutine has no
// shutdown edge — no receive on a done channel or context, no
// WaitGroup.Done the stopper can Wait on — outlives the owner: it keeps
// polling, keeps a connection open, or leaks outright after every
// restart cycle of the cluster. The analyzer inspects the spawned body
// (function literal or same-package callee, following same-package calls)
// for any such edge. Receives on time.Ticker/Timer channels and time.After
// do not count: a timer firing wakes the goroutine but never tells it to
// exit.
var Goroleak = &Analyzer{
	Name: "goroleak",
	Doc:  "goroutines spawned by a type with Stop/Close/Shutdown need a shutdown edge (done channel, context or WaitGroup)",
	Run:  runGoroleak,
}

// stopperNames are the conventional teardown method names.
var stopperNames = map[string]bool{"Stop": true, "Close": true, "Shutdown": true}

// namedRecv resolves a method declaration's receiver to its named type.
func namedRecv(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) != 1 {
		return nil
	}
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func runGoroleak(p *Pass) {
	// Named types with a teardown method.
	stoppable := make(map[*types.Named]string)
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if named := namedRecv(p.Pkg.Info, fd); named != nil && stopperNames[fd.Name.Name] {
				stoppable[named] = fd.Name.Name
			}
		}
	}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			named := namedRecv(p.Pkg.Info, fd)
			if named == nil {
				continue
			}
			stopper, ok := stoppable[named]
			if !ok {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				body := p.spawnedBody(gs)
				if body == nil {
					return true // spawned code is out of sight; trust it
				}
				if !p.hasShutdownEdge(body, make(map[*ast.BlockStmt]bool)) {
					p.Reportf(gs.Pos(), "goroutine spawned by (%s).%s has no shutdown edge — no done-channel/context receive, no WaitGroup.Done — so %s.%s cannot stop it and it outlives its owner", named.Obj().Name(), fd.Name.Name, named.Obj().Name(), stopper)
				}
				return true
			})
		}
	}
}

// spawnedBody resolves the body the go statement runs: a function
// literal's own body, or the declaration of a same-package callee.
func (p *Pass) spawnedBody(gs *ast.GoStmt) *ast.BlockStmt {
	if lit, ok := gs.Call.Fun.(*ast.FuncLit); ok {
		return lit.Body
	}
	return p.samePackageBody(callee(p.Pkg.Info, gs.Call))
}

// samePackageBody is the body of fn when the package under analysis
// declares it, or nil.
func (p *Pass) samePackageBody(fn *types.Func) *ast.BlockStmt {
	if fn == nil || fn.Pkg() != p.Pkg.Types {
		return nil
	}
	return p.graph.decls[fn].body
}

// hasShutdownEdge reports whether the body (following same-package calls)
// contains a way for the owner to end the goroutine: a channel receive,
// select or range on anything but a timer channel, or a WaitGroup.Done.
func (p *Pass) hasShutdownEdge(body *ast.BlockStmt, visited map[*ast.BlockStmt]bool) bool {
	info := p.Pkg.Info
	if visited[body] {
		return false
	}
	visited[body] = true
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch x := n.(type) {
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && stoppableChan(info, x.X) {
				found = true
			}
		case *ast.RangeStmt:
			if tv, ok := info.Types[x.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && stoppableChan(info, x.X) {
					found = true
				}
			}
		case *ast.CallExpr:
			fn := callee(info, x)
			if fn == nil {
				return true
			}
			if fullFuncName(fn) == "sync.WaitGroup.Done" {
				found = true
				return false
			}
			if inner := p.samePackageBody(fn); inner != nil && p.hasShutdownEdge(inner, visited) {
				found = true
			}
		}
		return !found
	})
	return found
}

// stoppableChan reports whether receiving on the expression can be an
// owner-driven shutdown signal. Timer-flavored channels cannot: a Ticker
// or After firing wakes the goroutine on schedule, it never ends it.
func stoppableChan(info *types.Info, e ast.Expr) bool {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
		if tv, ok := info.Types[sel.X]; ok && isTimeTickerOrTimer(tv.Type) {
			return false
		}
	}
	if call, ok := e.(*ast.CallExpr); ok {
		fn := callee(info, call)
		if timeFunc(fn, "After") || timeFunc(fn, "Tick") {
			return false
		}
	}
	return true
}

// isTimeTickerOrTimer matches time.Ticker / time.Timer (or pointers).
func isTimeTickerOrTimer(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Pkg().Path() == "time" &&
		(named.Obj().Name() == "Ticker" || named.Obj().Name() == "Timer")
}
