package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"
)

// Lockheld forbids blocking operations while a sync.Mutex/RWMutex is held.
//
// The sharded presence table and the relay batch paths stay fast only
// because their critical sections are tiny: a net.Conn read/write, a
// channel operation, a dial or a time.Sleep under a shard lock turns one
// slow peer into a server-wide stall (and with lock ordering, a
// deadlock). The analyzer tracks Lock/Unlock pairs through each function
// body and derives "blockingness" through the module call graph from the
// standard library's blocking calls, so a helper that dials, or a cluster
// method that makes an HTTP request, is as forbidden under a lock as
// net.Dial itself.
var Lockheld = &Analyzer{
	Name: "lockheld",
	Doc:  "no blocking call (net IO, HTTP requests, channel ops, sleeps, dials) while a sync.Mutex/RWMutex is held",
	Run:  runLockheld,
}

// netIfaces holds net.Conn and net.Listener as the run's packages see
// them (nil when none of them reaches package net).
type netIfaces struct {
	conn     *types.Interface
	listener *types.Interface
}

func resolveNetIfaces(univ []*Package) netIfaces {
	return netIfaces{conn: lookupIface(univ, "net", "Conn"), listener: lookupIface(univ, "net", "Listener")}
}

// netDialFuncs are the package-level net functions that block on the
// network.
var netDialFuncs = map[string]bool{
	"Dial": true, "DialTimeout": true, "DialIP": true, "DialTCP": true,
	"DialUDP": true, "DialUnix": true, "Listen": true, "ListenIP": true,
	"ListenTCP": true, "ListenUDP": true, "ListenUnix": true,
	"ListenUnixgram": true, "ListenPacket": true, "ListenMulticastUDP": true,
}

// httpRequests are the net/http functions and http.Client methods that
// send a request and wait for its response.
var httpRequests = map[string]bool{"Get": true, "Post": true, "Head": true, "PostForm": true, "Do": true}

// callReason classifies calls that block by themselves (fn may be nil),
// independent of any module code: net dials/listens, HTTP client
// requests, time.Sleep, WaitGroup/Cond waits, net.Conn IO and
// Listener.Accept.
func (ifaces netIfaces) callReason(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	path, name := fn.Pkg().Path(), fn.Name()
	if sig.Recv() == nil {
		switch {
		case path == "net" && netDialFuncs[name]:
			return "dials or listens on the network"
		case path == "net/http" && httpRequests[name]:
			return "performs an HTTP request"
		case path == "time" && name == "Sleep":
			return "sleeps"
		}
		return ""
	}
	switch full := fullFuncName(fn); {
	case full == "sync.WaitGroup.Wait":
		return "waits on a WaitGroup"
	case full == "sync.Cond.Wait":
		return "waits on a Cond"
	case full == "net.Dialer.Dial", full == "net.Dialer.DialContext":
		return "dials the network"
	case full == "net/http.Client."+name && httpRequests[name]:
		return "performs an HTTP request"
	}
	recv := sig.Recv().Type()
	switch name {
	case "Read", "Write":
		if implementsIface(recv, ifaces.conn) {
			return "performs network IO on a net.Conn"
		}
	case "Accept":
		if implementsIface(recv, ifaces.listener) {
			return "blocks in Accept"
		}
	}
	return ""
}

// blockOp classifies the channel operations that block by themselves — a
// send, a receive, a range over a channel and a select with no default —
// returning where one blocks, the reason a function's summary gives and
// the words a finding under a lock uses ("" for anything else).
func blockOp(info *types.Info, n ast.Node) (pos token.Pos, reason, what string) {
	switch x := n.(type) {
	case *ast.SendStmt:
		return x.Arrow, "sends on a channel", "channel send"
	case *ast.UnaryExpr:
		if x.Op == token.ARROW {
			return x.OpPos, "receives from a channel", "channel receive"
		}
	case *ast.RangeStmt:
		if tv, ok := info.Types[x.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return x.For, "ranges over a channel", "range over a channel"
			}
		}
	case *ast.SelectStmt:
		if !selectHasDefault(x) {
			return x.Select, "blocks in a select", "select with no default case"
		}
	}
	return token.NoPos, "", ""
}

// blocking is the property "can block the calling goroutine": a body has
// it through a blocking channel operation or a blocking call.
func blocking(ifaces netIfaces) property {
	return property{
		seed: func(info *types.Info, n ast.Node) string {
			if call, ok := n.(*ast.CallExpr); ok {
				return ifaces.callReason(callee(info, call))
			}
			_, reason, _ := blockOp(info, n)
			return reason
		},
		via: func(fn *types.Func, _ string) string {
			return fmt.Sprintf("calls %s, which can block", fullFuncName(fn))
		},
	}
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

func runLockheld(p *Pass) {
	ifaces := resolveNetIfaces(p.Univ)
	w := &lockWalker{pass: p, ifaces: ifaces, blocking: p.derive(blocking(ifaces))}
	for _, f := range p.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				w.block(fd.Body.List, map[string]token.Pos{})
			}
		}
	}
}

// lockWalker tracks which mutexes are held through one function body,
// statement by statement, and reports blocking operations inside critical
// sections. Branch bodies are analyzed with a copy of the entry state;
// after the branch the pre-branch state is restored (the common
// early-unlock-and-return pattern keeps the lock held on the fall-through
// path).
type lockWalker struct {
	pass     *Pass
	ifaces   netIfaces
	blocking map[*types.Func]string
}

func (w *lockWalker) block(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		w.stmt(s, held)
	}
}

func (w *lockWalker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch st := s.(type) {
	case *ast.ExprStmt:
		if key, isLock, isUnlock := w.lockOp(st.X); isLock {
			held[key] = st.X.Pos()
		} else if isUnlock {
			delete(held, key)
		} else {
			w.scan(st.X, held)
		}
	case *ast.DeferStmt:
		// The deferred call runs at return, when the lock may already be
		// released (defer mu.Unlock() is the idiom) — only argument
		// evaluation happens now.
		w.scanCallArgs(st.Call, held)
	case *ast.GoStmt:
		// The spawned goroutine does not block this one; arguments are
		// still evaluated synchronously.
		w.scanCallArgs(st.Call, held)
	case *ast.BlockStmt:
		w.block(st.List, held)
	case *ast.IfStmt:
		w.stmt(st.Init, held)
		w.scan(st.Cond, held)
		w.block(st.Body.List, maps.Clone(held))
		if st.Else != nil {
			w.stmt(st.Else, maps.Clone(held))
		}
	case *ast.ForStmt:
		w.stmt(st.Init, held)
		w.scan(st.Cond, held)
		inner := maps.Clone(held)
		w.block(st.Body.List, inner)
		w.stmt(st.Post, inner)
	case *ast.RangeStmt:
		w.check(st, held)
		w.scan(st.X, held)
		w.block(st.Body.List, maps.Clone(held))
	case *ast.SwitchStmt:
		w.stmt(st.Init, held)
		w.scan(st.Tag, held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.scan(e, held)
			}
			w.block(cc.Body, maps.Clone(held))
		}
	case *ast.TypeSwitchStmt:
		w.stmt(st.Init, held)
		w.stmt(st.Assign, held)
		for _, c := range st.Body.List {
			w.block(c.(*ast.CaseClause).Body, maps.Clone(held))
		}
	case *ast.SelectStmt:
		w.check(st, held)
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			// The comm op's blockingness is the select's as a whole
			// (checked above); only pull nested literals out of it.
			w.scan(cc.Comm, nil)
			w.block(cc.Body, maps.Clone(held))
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt, held)
	default:
		// Every other statement (assignment, send, return, declaration,
		// inc/dec) evaluates its expressions here, under held.
		w.scan(st, held)
	}
}

// scanCallArgs analyzes a defer/go call: literals get fresh analysis, and
// argument expressions (evaluated synchronously) are scanned, but the
// call itself is not treated as blocking here.
func (w *lockWalker) scanCallArgs(call *ast.CallExpr, held map[string]token.Pos) {
	if lit, ok := call.Fun.(*ast.FuncLit); ok {
		w.block(lit.Body.List, map[string]token.Pos{})
	}
	for _, a := range call.Args {
		w.scan(a, held)
	}
}

// scan walks n (which may be nil) for blocking operations under the
// current lock state. Function literals are analyzed separately with a
// fresh state — they run on their own schedule.
func (w *lockWalker) scan(n ast.Node, held map[string]token.Pos) {
	ast.Inspect(n, func(x ast.Node) bool {
		if lit, ok := x.(*ast.FuncLit); ok {
			w.block(lit.Body.List, map[string]token.Pos{})
			return false
		}
		w.check(x, held)
		return x != nil
	})
}

// check reports n when a lock is held and n blocks by itself: a blocking
// channel operation, or a call that blocks directly or through module
// code.
func (w *lockWalker) check(n ast.Node, held map[string]token.Pos) {
	if len(held) == 0 {
		return
	}
	info := w.pass.Pkg.Info
	if pos, _, what := blockOp(info, n); what != "" {
		w.reportBlocked(pos, what, held)
	} else if call, ok := n.(*ast.CallExpr); ok {
		fn := callee(info, call)
		if r := w.ifaces.callReason(fn); r != "" {
			w.reportBlocked(call.Pos(), fmt.Sprintf("call to %s (%s)", fullFuncName(fn), r), held)
		} else if r, ok := w.blocking[fn]; ok {
			w.reportBlocked(call.Pos(), fmt.Sprintf("call to %s, which %s", fullFuncName(fn), r), held)
		}
	}
}

// lockOp classifies a call as a mutex Lock/RLock or Unlock/RUnlock and
// returns the canonical receiver expression ("s.mu") as the state key.
func (w *lockWalker) lockOp(e ast.Expr) (key string, isLock, isUnlock bool) {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return "", false, false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false, false
	}
	fn, ok := w.pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", false, false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return "", false, false
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		if name := t.Obj().Name(); name != "Mutex" && name != "RWMutex" {
			return "", false, false
		}
	case *types.Interface: // sync.Locker
	default:
		return "", false, false
	}
	key = types.ExprString(sel.X)
	switch fn.Name() {
	case "Lock", "RLock":
		return key, true, false
	case "Unlock", "RUnlock":
		return key, false, true
	}
	return "", false, false
}

// reportBlocked emits one finding naming the operation and the held lock.
func (w *lockWalker) reportBlocked(pos token.Pos, what string, held map[string]token.Pos) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lockPos := w.pass.Pkg.Fset.Position(held[keys[0]])
	w.pass.Reportf(pos, "%s while %s is held (locked at line %d); release the lock around blocking operations so one slow peer cannot stall every goroutine contending for it", what, strings.Join(keys, ", "), lockPos.Line)
}
