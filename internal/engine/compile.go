package engine

import (
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/core"
	"auditdb/internal/opt"
	"auditdb/internal/plan"
)

// knobs are the session settings that steer planning. The value is
// comparable and is the whole knob half of every plan-cache key: two
// statements with the same canonical text compile to the same plan
// exactly when their knobs are equal.
type knobs struct {
	heuristic core.Heuristic
	auditAll  bool
	workers   int // resolved budget: the session's SET workers, else the engine default
	minRows   int // opt.Parallelize threshold
}

// planKnobs reads the session's planning knobs under one lock.
func (s *Session) planKnobs() knobs {
	s.lock()
	k := knobs{heuristic: s.heuristic, auditAll: s.auditAll, workers: s.workers}
	s.unlock()
	if k.workers <= 0 {
		k.workers = s.e.DefaultWorkers()
	}
	k.minRows = int(s.e.parallelMinRows.Load())
	return k
}

// compiled is a SELECT taken through the whole plan pipeline, plus the
// facts about the result that execution needs. Its audit operators'
// sinks belong to whoever compiled it; every execution rebinds them
// (executeSelect), so a compiled plan can be cached and run again.
type compiled struct {
	root         plan.Node
	targets      []*core.AuditExpression
	hasAudit     bool // instrumentation placed at least one audit operator
	conservative bool // some audit operator may over-report (Example 3.8)
	parallel     bool // the parallelizer rewrote the plan
	correlated   bool // the plan reads the trigger's NEW/OLD outer row

	// When opt.Optimize ran, for the compiling statement's trace.
	optStart time.Time
	optDur   time.Duration
}

// build is the first two steps of the plan pipeline: logical plan and
// logical optimization, nothing audit-specific yet.
func (e *Engine) build(sel *ast.Select, env *actionEnv) (*compiled, error) {
	c := &compiled{}
	var err error
	if env.outerSchema != nil {
		c.root, c.correlated, err = plan.BuildWithOuter(e.planEnv(env), sel, env.outerSchema)
	} else {
		c.root, err = plan.Build(e.planEnv(env), sel)
	}
	if err != nil {
		return nil, err
	}
	c.optStart = time.Now()
	c.root = opt.Optimize(c.root)
	c.optDur = time.Since(c.optStart)
	return c, nil
}

// compile is the one place the plan pipeline runs, in order: build and
// optimize, instrument with audit operators — after logical
// optimization, exactly where the paper's prototype inserts them
// (§IV-B) — classify their placement, then parallelize. Every SELECT
// the engine runs or explains is planned here.
func (e *Engine) compile(sel *ast.Select, env *actionEnv, k knobs) (*compiled, error) {
	c, err := e.build(sel, env)
	if err != nil {
		return nil, err
	}
	c.targets = e.auditTargets(k.auditAll)
	if len(c.targets) > 0 {
		acc := core.NewAccessed()
		for _, ae := range c.targets {
			c.root = core.Instrument(c.root, ae, &core.Probe{Expr: ae, Acc: acc}, k.heuristic)
		}
		// A query touching no sensitive table (e.g. a trigger body reading
		// ACCESSED) is not an audited query: classify only when
		// instrumentation actually placed an operator.
		if core.CountAuditOps(c.root, true) > 0 {
			c.hasAudit = true
			c.conservative = core.HasConservativePlacement(c.root)
		}
	}
	// Parallelize last, over the instrumented plan, so audit operators
	// land inside fragments and fork worker-local sinks.
	if k.workers >= 2 {
		c.root = opt.Parallelize(c.root, e.tableEstimate, k.workers, k.minRows)
		c.parallel = planIsParallel(c.root)
	}
	return c, nil
}

// planIsParallel reports whether the parallelizer actually rewrote the
// plan — a Gather exchange or a two-phase aggregate anywhere in it.
func planIsParallel(root plan.Node) bool {
	parallel := false
	plan.Walk(root, func(n plan.Node) {
		switch x := n.(type) {
		case *plan.Gather:
			parallel = true
		case *plan.Aggregate:
			if x.Parallel {
				parallel = true
			}
		}
	})
	return parallel
}

// rebindProbes points every audit operator in a plan (main tree and all
// subquery blocks) at a fresh Probe bound to this execution's ACCESSED
// state. Like core.Instrument, all audit operators for one expression
// share one Probe, so the first-seen dedup cache spans the whole query
// exactly as it does on a fresh plan.
func rebindProbes(root plan.Node, acc *core.Accessed) {
	probes := make(map[*core.AuditExpression]*core.Probe)
	rebind(root, acc, probes)
}

func rebind(root plan.Node, acc *core.Accessed, probes map[*core.AuditExpression]*core.Probe) {
	plan.Walk(root, func(n plan.Node) {
		a, ok := n.(*plan.Audit)
		if !ok {
			return
		}
		old, ok := a.Sink.(*core.Probe)
		if !ok {
			return
		}
		p, ok := probes[old.Expr]
		if !ok {
			p = &core.Probe{Expr: old.Expr, Acc: acc}
			probes[old.Expr] = p
		}
		a.Sink = p
	})
	plan.Subplans(root, func(sq *plan.Subquery) {
		rebind(sq.Plan, acc, probes)
	})
}
