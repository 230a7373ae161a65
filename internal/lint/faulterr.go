package lint

import (
	"go/ast"
	"go/types"
)

// FaultErr enforces the fault-signalling contract: on the APIs where
// an error result *is* the failure notification — transport Send/Recv,
// the core p2p/collective entry points, checkpoint store and coder
// operations — the error may not be discarded. Sending to a dead peer
// is silent (PSM semantics), so a dropped error on these paths turns
// transparent recovery into a silent hang: the rank never learns the
// peer died and never re-enters the recovery protocol.
//
// A call's error is "discarded" when the call stands alone as a
// statement, runs under go/defer, or has its error result assigned to
// the blank identifier.
var FaultErr = &Analyzer{
	Name: "faulterr",
	Doc:  "error results of fault-signalling APIs must not be discarded",
	Run:  runFaultErr,
}

// faultAPIs names the fault-signalling functions per declaring package
// name. Matching by package *name* (not full path) keeps the table
// valid for both the real module and the test fixtures.
var faultAPIs = map[string]map[string]bool{
	"transport": set("Send", "Recv", "TryRecv", "PostRecv", "Await", "Connect"),
	"core": set("Send", "Recv", "Sendrecv", "TryRecv", "Isend", "Irecv", "Wait", "WaitAll",
		"Barrier", "Bcast", "Reduce", "Allreduce", "Gather", "Allgather", "Scatter", "Alltoall"),
	"ckpt": set("Send", "Recv", "Forward", "Restore", "EncodeRing", "Encode", "Rebuild", "Reconstruct"),
	"coll": set("Send", "Recv"),
	"fmi": set("Send", "Recv", "Sendrecv", "Barrier", "Bcast", "Reduce", "Allreduce",
		"Gather", "Allgather", "Scatter", "Alltoall"),
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func runFaultErr(prog *Program, report Reporter) {
	ifaces := faultInterfaces(prog)
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ExprStmt:
					if call, ok := n.X.(*ast.CallExpr); ok {
						checkDiscard(prog, pkg, call, ifaces, report, "result ignored")
						return true
					}
				case *ast.GoStmt:
					checkDiscard(prog, pkg, n.Call, ifaces, report, "result ignored by go statement")
				case *ast.DeferStmt:
					checkDiscard(prog, pkg, n.Call, ifaces, report, "result ignored by defer")
				case *ast.AssignStmt:
					checkBlankAssign(prog, pkg, n, ifaces, report)
				}
				return true
			})
		}
	}
}

// faultIface is an interface that carries the fault signal, together
// with the fault-method names it contributes (only the names from the
// declaring package's faultAPIs row — an interface's unrelated
// error-returning methods, like Close, are not fault APIs).
type faultIface struct {
	iface   *types.Interface
	methods map[string]bool
}

// faultInterfaces collects the interface types declared in the
// messaging/checkpoint packages whose methods carry the fault signal
// (an error result): transport.Endpoint, ckpt.GroupComm, the coll
// transport, and friends. Concrete implementations of these interfaces
// (test harnesses, experiment shims) inherit the contract even though
// they live in other packages.
func faultInterfaces(prog *Program) []faultIface {
	var out []faultIface
	for _, pkg := range prog.Packages {
		if faultAPIs[pkg.Name] == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			fi := faultIface{iface: iface, methods: map[string]bool{}}
			for i := 0; i < iface.NumMethods(); i++ {
				m := iface.Method(i)
				if faultAPIs[pkg.Name][m.Name()] && lastResultIsError(m) {
					fi.methods[m.Name()] = true
				}
			}
			if len(fi.methods) > 0 {
				out = append(out, fi)
			}
		}
	}
	return out
}

func lastResultIsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

// faultCall resolves whether call targets a fault-signalling API whose
// last result is an error, returning a printable name.
func faultCall(pkg *Package, call *ast.CallExpr, ifaces []faultIface) (string, bool) {
	var fn *types.Func
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if selection, ok := pkg.Info.Selections[fun]; ok {
			fn, _ = selection.Obj().(*types.Func)
		} else if obj, ok := pkg.Info.Uses[fun.Sel]; ok {
			fn, _ = obj.(*types.Func) // package-qualified call
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fun]; ok {
			fn, _ = obj.(*types.Func)
		}
	}
	if fn == nil || fn.Pkg() == nil || !lastResultIsError(fn) {
		return "", false
	}
	name := fn.Name()
	if names, ok := faultAPIs[fn.Pkg().Name()]; ok && names[name] {
		return fn.Pkg().Name() + "." + name, true
	}
	// A method on a concrete type implementing a fault interface.
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		for _, fi := range ifaces {
			if fi.methods[name] &&
				(types.Implements(recv.Type(), fi.iface) ||
					types.Implements(types.NewPointer(recv.Type()), fi.iface)) {
				return fn.Pkg().Name() + "." + name, true
			}
		}
	}
	return "", false
}

func checkDiscard(prog *Program, pkg *Package, call *ast.CallExpr, ifaces []faultIface, report Reporter, how string) {
	if name, ok := faultCall(pkg, call, ifaces); ok {
		report(call.Pos(), "%s error %s; on fault paths this error is the failure notification", name, how)
	}
}

// checkBlankAssign flags `_ = c.Send(...)` and `v, _ := c.Recv(...)`
// where the blank identifier lands on the error result.
func checkBlankAssign(prog *Program, pkg *Package, as *ast.AssignStmt, ifaces []faultIface, report Reporter) {
	// Single call on the RHS feeding all LHS targets.
	if len(as.Rhs) == 1 {
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		if len(as.Lhs) == 0 {
			return
		}
		if isBlank(as.Lhs[len(as.Lhs)-1]) {
			checkDiscard(prog, pkg, call, ifaces, report, "assigned to _")
		}
		return
	}
	// Parallel assignment: position-matched.
	for i, rhs := range as.Rhs {
		call, ok := rhs.(*ast.CallExpr)
		if !ok || i >= len(as.Lhs) {
			continue
		}
		if isBlank(as.Lhs[i]) {
			checkDiscard(prog, pkg, call, ifaces, report, "assigned to _")
		}
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
