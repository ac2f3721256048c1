package lint

import (
	"go/ast"
	"go/types"
	"maps"
	"slices"
	"strings"
)

// LockIO flags fsync, network I/O, sleeps, blocking channel sends and
// the fan-out append (commitlog.Log.Append blocks while a Block
// subscriber is a full ring behind) performed while a hot-path mutex is
// held: shard, store and commit-log mutexes (all named "mu"), the
// snapshot mutex ("snapMu") and the store's stamp section ("stampMu").
// The publish lock ("pubMu") is not tracked: it exists to be held across
// Log.Append. This is the PR 3/PR 4 bug class: an unlock-then-publish
// race was fixed by moving publication out of the shard critical section,
// and a stalled replica once wedged the primary write path by blocking a
// transfer while snapMu was held.
//
// The analysis is intraprocedural and syntactic about lock regions: a
// region opens at X.Lock()/X.RLock() and closes at the matching
// X.Unlock()/X.RUnlock(); defer X.Unlock() holds the region to the end
// of the function; an unlock inside a terminating guard clause (early
// return) does not close the outer region. Calls into other functions
// are opaque — the WAL's queue send under the stamp lock and the
// committer's fsync, for example, live in internal/wal, which owns its
// own locking discipline and is deliberately out of scope.
var LockIO = &Analyzer{
	Name: "lockio",
	Doc: "no fsync, network I/O, time.Sleep, blocking channel send or commitlog.Log.Append " +
		"while a shard mutex, snapMu, or the stamp lock is held",
	Packages: []string{"internal/store", "internal/commitlog", "internal/cluster"},
	Run:      runLockIO,
}

// lockIOMutexNames are the field names treated as hot-path mutexes.
var lockIOMutexNames = map[string]bool{"mu": true, "snapMu": true, "stampMu": true}

type lockRegion struct {
	key      string // mutex expression text, e.g. "sh.mu"
	rlock    bool
	deferred bool // released by defer: held to end of function
}

type lockState map[string]*lockRegion

func (st lockState) clone() lockState { return maps.Clone(st) }

func runLockIO(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			walkLockStmts(pass, body.List, lockState{})
		})
	}
	return nil
}

// walkLockStmts interprets a statement list, tracking held mutexes, and
// reports whether the list always terminates (return/branch/panic).
func walkLockStmts(pass *Pass, stmts []ast.Stmt, st lockState) bool {
	for _, s := range stmts {
		if walkLockStmt(pass, s, st) {
			return true
		}
	}
	return false
}

func walkLockStmt(pass *Pass, stmt ast.Stmt, st lockState) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if handleLockOp(pass, s.X, st, false) {
			return false
		}
		checkLockSinks(pass, s.X, st)
	case *ast.DeferStmt:
		if handleLockOp(pass, s.Call, st, true) {
			return false
		}
		// The deferred call itself runs at function exit with unknown
		// lock state; only its argument expressions evaluate now.
		for _, arg := range s.Call.Args {
			checkLockSinks(pass, arg, st)
		}
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			checkLockSinks(pass, arg, st)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			checkLockSinks(pass, r, st)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.SendStmt:
		checkLockSinks(pass, s.Chan, st)
		checkLockSinks(pass, s.Value, st)
		reportSend(pass, s, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			checkLockSinks(pass, e, st)
		}
		for _, e := range s.Lhs {
			checkLockSinks(pass, e, st)
		}
	case *ast.DeclStmt:
		checkLockSinks(pass, s, st)
	case *ast.IncDecStmt:
		checkLockSinks(pass, s.X, st)
	case *ast.LabeledStmt:
		return walkLockStmt(pass, s.Stmt, st)
	case *ast.BlockStmt:
		return walkLockStmts(pass, s.List, st)
	case *ast.IfStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, st)
		}
		checkLockSinks(pass, s.Cond, st)
		stThen := st.clone()
		termThen := walkLockStmts(pass, s.Body.List, stThen)
		stElse := st.clone()
		termElse := false
		if s.Else != nil {
			termElse = walkLockStmt(pass, s.Else, stElse)
		}
		switch {
		case termThen && termElse:
			return true
		case termThen:
			adopt(st, stElse)
		default:
			// Else-terminates or straight-line: the then-branch state
			// flows on (approximation: divergent non-terminating
			// branches adopt the then-branch).
			adopt(st, stThen)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, st)
		}
		if s.Cond != nil {
			checkLockSinks(pass, s.Cond, st)
		}
		stBody := st.clone()
		if !walkLockStmts(pass, s.Body.List, stBody) {
			adopt(st, stBody)
		}
	case *ast.RangeStmt:
		checkLockSinks(pass, s.X, st)
		stBody := st.clone()
		if !walkLockStmts(pass, s.Body.List, stBody) {
			adopt(st, stBody)
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			walkLockStmt(pass, s.Init, st)
		}
		if s.Tag != nil {
			checkLockSinks(pass, s.Tag, st)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, st.clone())
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				walkLockStmts(pass, cc.Body, st.clone())
			}
		}
	case *ast.SelectStmt:
		blocking := selectCanBlockForever(s)
		for _, c := range s.Body.List {
			cc, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			if send, ok := cc.Comm.(*ast.SendStmt); ok && blocking {
				reportSend(pass, send, st)
			}
			walkLockStmts(pass, cc.Body, st.clone())
		}
	}
	return false
}

// adopt replaces dst's contents with src's.
func adopt(dst, src lockState) {
	clear(dst)
	maps.Copy(dst, src)
}

// selectCanBlockForever: a select with a default clause (or more than
// one communication to race) has an escape; only a single-case select
// without default is as blocking as a bare send.
func selectCanBlockForever(s *ast.SelectStmt) bool {
	comms := 0
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if cc.Comm == nil {
			return false // default clause
		}
		comms++
	}
	return comms <= 1
}

// handleLockOp recognizes X.Lock/RLock/Unlock/RUnlock on a tracked mutex
// and updates the state. Returns true when the expression was a lock op.
func handleLockOp(pass *Pass, e ast.Expr, st lockState, deferred bool) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	name, lock, ok := mutexOp(pass, call)
	if !ok || !lockIOMutexNames[name] {
		return false
	}
	sel := call.Fun.(*ast.SelectorExpr)
	key := types.ExprString(sel.X)
	switch {
	case lock && !deferred:
		st[key] = &lockRegion{key: key, rlock: sel.Sel.Name == "RLock"}
	case lock:
	case deferred:
		if r, ok := st[key]; ok {
			r.deferred = true
		}
	default:
		delete(st, key)
	}
	return true
}

// mutexOp recognizes X.Lock/RLock/Unlock/RUnlock on a sync.Mutex/RWMutex
// field or variable and returns its name and whether the op acquires.
func mutexOp(pass *Pass, call *ast.CallExpr) (name string, lock, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		lock = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		name = x.Name
	case *ast.SelectorExpr:
		name = x.Sel.Name
	default:
		return "", false, false
	}
	tn, tp := namedType(pass, sel.X)
	return name, lock, tp == "sync" && (tn == "Mutex" || tn == "RWMutex")
}

// checkLockSinks walks an expression (not descending into function
// literals) and reports deny-listed call sinks when any mutex is held.
func checkLockSinks(pass *Pass, n ast.Node, st lockState) {
	if len(st) == 0 || n == nil {
		return
	}
	inspectShallow(n, func(c ast.Node) bool {
		call, ok := c.(*ast.CallExpr)
		if !ok {
			return true
		}
		if kind := sinkKind(resolveCallee(pass, call)); kind != "" {
			pass.Reportf(call.Pos(), "%s while %s is held — no I/O or blocking calls under shard, snapshot, or stamp locks", kind, heldList(st))
		}
		return true
	})
}

func reportSend(pass *Pass, s *ast.SendStmt, st lockState) {
	if len(st) == 0 {
		return
	}
	pass.Reportf(s.Arrow, "blocking channel send while %s is held — deliver via the pipeline's pump goroutines outside the lock", heldList(st))
}

// heldList names the held mutexes, sorted for stable diagnostics.
func heldList(st lockState) string {
	return "\"" + strings.Join(slices.Sorted(maps.Keys(st)), "\", \"") + "\""
}

// sinkKind classifies a resolved callee as a deny-listed sink.
func sinkKind(ci calleeInfo) string {
	switch {
	case ci.pkgPath == "os" && ci.recv == "File" && ci.name == "Sync":
		return "fsync (os.File.Sync)"
	case ci.pkgPath == "net" && (strings.HasPrefix(ci.name, "Dial") || strings.HasPrefix(ci.name, "Listen")):
		return "network I/O (net." + ci.name + ")"
	case ci.pkgPath == "net" && ci.recv != "" && (ci.name == "Read" || ci.name == "Write"):
		return "network I/O (net." + ci.recv + "." + ci.name + ")"
	case ci.pkgPath == "net/http" && ci.recv == "Client" &&
		(ci.name == "Do" || ci.name == "Get" || ci.name == "Post" || ci.name == "Head" || ci.name == "PostForm"):
		return "network I/O (http.Client." + ci.name + ")"
	case ci.pkgPath == "net/http" && ci.recv == "" &&
		(ci.name == "Get" || ci.name == "Post" || ci.name == "Head" || ci.name == "PostForm"):
		return "network I/O (http." + ci.name + ")"
	case ci.pkgPath == "net/http" && ci.recv == "ResponseWriter" && ci.name == "Write":
		return "network I/O (http.ResponseWriter.Write)"
	case ci.pkgPath == "time" && ci.name == "Sleep":
		return "time.Sleep"
	case ci.recv == "Log" && commitlogPkg(ci.recvPkg) && ci.name == "Append":
		return "blocking fan-out append (commitlog.Log.Append)"
	}
	return ""
}
