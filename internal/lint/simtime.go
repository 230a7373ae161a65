package lint

import (
	"go/ast"
	"go/types"
)

// SimTime keeps wall-clock time out of the simulation's timing model.
// The simulated-cluster and collective-schedule packages must express
// timing through the cluster's event hooks and the transport's
// failure-observation delays (Options.DetectDelay and PropDelay): a
// direct time.Now/Sleep/After/NewTimer there couples the simulation to
// the host scheduler and silently skews the measured recovery and
// round-count figures. The trace, runtime, transport, and serve
// packages are allowlisted — they deliberately deal in wall-clock time
// (timeline timestamps, job timeouts, the observation delays' own
// implementation, and the job service's HTTP deadlines, coarse clock,
// and simulated per-iteration compute).
var SimTime = &Analyzer{
	Name: "simtime",
	Doc:  "no direct wall-clock calls in the simulated-cluster and schedule packages",
	Run:  runSimTime,
}

// simtimePkgs are the package names the restriction applies to;
// simtimeAllow documents the deliberate exemptions.
var (
	simtimePkgs  = map[string]bool{"cluster": true, "coll": true}
	simtimeAllow = map[string]bool{"trace": true, "runtime": true, "transport": true, "serve": true}

	forbiddenTimeFuncs = map[string]bool{
		"Now": true, "Sleep": true, "After": true, "Tick": true,
		"NewTimer": true, "NewTicker": true, "AfterFunc": true,
	}
)

func runSimTime(prog *Program, report Reporter) {
	for _, pkg := range prog.Packages {
		if !simtimePkgs[pkg.Name] || simtimeAllow[pkg.Name] {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				obj, ok := pkg.Info.Uses[sel.Sel]
				if !ok {
					return true
				}
				fn, ok := obj.(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
					return true
				}
				if forbiddenTimeFuncs[fn.Name()] {
					report(sel.Pos(), "direct time.%s in simulated package %q; route timing through the cluster's event hooks or the transport's observation delays", fn.Name(), pkg.Name)
				}
				return true
			})
		}
	}
}
