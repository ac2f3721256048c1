package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SeqPublish enforces order by construction in internal/store and
// internal/cluster: write order is decided once, in the store's stamp
// section (stampMu), and the queues it orders are drained onto the
// fan-out log under the publish lock (pubMu). Four shapes violate it:
//
//  1. a (*commitlog.Log).Append outside a pubMu region — two appenders
//     could interleave their batches;
//  2. a write to the store's seq counter or to an event's Seq field
//     outside a stampMu region — Seq order and queue order can diverge;
//  3. a raw channel send of commitlog events — subscribers are fed by
//     the Log's per-subscriber pump goroutines, never by producers;
//  4. a publish/emit/notify-style call after a shard or snapshot mutex
//     was explicitly unlocked — the PR 3 unlock-then-publish race.
//
// Lock regions are read positionally within one function scope: a mutex
// is held at a node when the nearest preceding non-deferred Lock/Unlock
// of a field with that name is a Lock.
var SeqPublish = &Analyzer{
	Name: "seqpublish",
	Doc: "Seq is assigned only in the stamp section (stampMu) and commitlog.Log.Append " +
		"is called only under the publish lock (pubMu), never by raw send or post-unlock publish",
	Packages: []string{"internal/store", "internal/cluster"},
	Run:      runSeqPublish,
}

// commitlogPkg reports whether a package path is the commit-log package
// (real tree or fixture).
func commitlogPkg(path string) bool {
	return path == "internal/commitlog" || strings.HasSuffix(path, "/internal/commitlog")
}

// isCommitlogEventType reports whether t is (a slice/pointer of) the
// commitlog Event type, through aliases like store.ChangeEvent.
func isCommitlogEventType(t types.Type) bool {
	switch x := types.Unalias(t).(type) {
	case *types.Slice:
		return isCommitlogEventType(x.Elem())
	case *types.Pointer:
		return isCommitlogEventType(x.Elem())
	case *types.Named:
		if pkg := x.Obj().Pkg(); pkg != nil && commitlogPkg(pkg.Path()) && x.Obj().Name() == "Event" {
			return true
		}
	}
	return false
}

func runSeqPublish(pass *Pass) error {
	for _, f := range pass.Files {
		funcBodies(f, func(name string, body *ast.BlockStmt) {
			checkSeqPublishScope(pass, body)
		})
	}
	return nil
}

func checkSeqPublishScope(pass *Pass, body *ast.BlockStmt) {
	// held records, per mutex field name, whether the last explicit lock
	// operation seen so far (the walk is in source order) acquired it;
	// unlockedAt is the first explicit unlock of a shard/snapshot mutex,
	// after which publishes are suspect.
	held := map[string]bool{}
	var unlockedAt token.Pos
	inspectShallow(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.DeferStmt:
			return false // deferred unlocks close the region at exit, not here
		case *ast.SendStmt:
			t := pass.TypeOf(x.Chan)
			if ch, ok := t.(*types.Chan); ok && isCommitlogEventType(ch.Elem()) {
				pass.Reportf(x.Arrow, "raw channel send of commit-pipeline events — subscribers are fed by the Log's pump goroutines; stamp the event and let the publish points append it")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if ok && sel.Sel.Name == "Seq" && isCommitlogEventType(pass.TypeOf(sel.X)) && !held["stampMu"] {
					pass.Reportf(x.Pos(), "event Seq assigned outside the stamp section — take stampMu around Seq assignment and the queue hand-off so queue order is Seq order")
				}
			}
		case *ast.CallExpr:
			if name, lock, ok := mutexOp(pass, x); ok {
				held[name] = lock
				if !lock && lockIOMutexNames[name] && name != "stampMu" && unlockedAt == token.NoPos {
					unlockedAt = x.Pos()
				}
				return true
			}
			ci := resolveCallee(pass, x)
			switch {
			case ci.recv == "Log" && commitlogPkg(ci.recvPkg) && ci.name == "Append":
				if !held["pubMu"] {
					pass.Reportf(x.Pos(), "commitlog.Log.Append outside the publish lock — appenders must hold pubMu so their batches cannot interleave")
				}
			case isSeqCounterWrite(x, ci):
				if !held["stampMu"] {
					pass.Reportf(x.Pos(), "sequence counter written outside the stamp section — take stampMu around Seq assignment and the queue hand-off so queue order is Seq order")
				}
			case unlockedAt != token.NoPos && x.Pos() > unlockedAt && isPublishLike(ci):
				pass.Reportf(x.Pos(), "publish-style call after unlocking a shard/snapshot mutex — racing writers can publish in swapped order; stamp under the lock and let the publish points append it")
			}
		}
		return true
	})
}

// isSeqCounterWrite matches a mutating call on an atomic field named seq
// (the store's sequence counter): X.seq.Add/Store/Swap/CompareAndSwap.
func isSeqCounterWrite(call *ast.CallExpr, ci calleeInfo) bool {
	if ci.recvPkg != "sync/atomic" {
		return false
	}
	switch ci.name {
	case "Add", "Store", "Swap", "CompareAndSwap":
	default:
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	field, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
	return ok && field.Sel.Name == "seq"
}

// isPublishLike matches method names that smell like subscriber fan-out.
func isPublishLike(ci calleeInfo) bool {
	switch strings.ToLower(ci.name) {
	case "publish", "emit", "notify", "fanout", "broadcastevent":
		return true
	}
	return false
}
