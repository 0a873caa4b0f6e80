package engine

import (
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/core"
	"auditdb/internal/offline"
	"auditdb/internal/opt"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// knobs are the session settings that steer planning. The value is
// comparable and is the whole knob half of every plan-cache key: two
// statements with the same canonical text compile to the same plan
// exactly when their knobs (and the engine's version) are equal.
type knobs struct {
	auditAll bool
	workers  int // resolved budget: the session's SET workers, else the engine default
	minRows  int // opt.Parallelize threshold
}

// planKnobs reads the session's planning knobs under one lock.
func (s *Session) planKnobs() knobs {
	s.lock()
	k := knobs{auditAll: s.auditAll, workers: s.workers}
	s.unlock()
	if k.workers <= 0 {
		k.workers = s.e.DefaultWorkers()
	}
	k.minRows = int(s.e.parallelMinRows.Load())
	return k
}

// compiled is a SELECT taken through the whole plan pipeline, plus the
// facts about the result that execution needs. Its audit operators'
// sinks belong to whoever compiled it: probes[i] is the one Probe every
// operator for targets[i] shares (in subquery blocks too), and each
// execution points them at its own ACCESSED state (executeSelect), so a
// compiled plan can be cached and run again.
type compiled struct {
	root     plan.Node
	targets  []*core.AuditExpression
	probes   []*core.Probe
	hasAudit bool // instrumentation placed at least one audit operator
	// exact[i] says targets[i]'s ACCESSED set is the Definition 2.3
	// answer (offline.Classify); false means it may over-report
	// (Example 3.8). Nil when hasAudit is false.
	exact      []bool
	parallel   bool // the parallelizer rewrote the plan
	correlated bool // the plan reads the trigger's NEW/OLD outer row
	// sys names the system relations the plan reads, subqueries
	// included; every run binds a fresh snapshot of each. Nil when none.
	sys []string

	// The result schema, computed once; every Result of the plan shares
	// these slices.
	columns []string
	kinds   []value.Kind

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
	c.sys = sysReads(c.root)
	return c, nil
}

// compile is the one place the plan pipeline runs, in order: build and
// optimize, instrument with audit operators — after logical
// optimization, exactly where the paper's prototype inserts them
// (§IV-B), under the engine's placement heuristic — classify each
// target's placement, then parallelize. Every SELECT the engine runs or
// explains is planned here. Callers that cache the plan load the
// version first, so a racing SetHeuristic makes it stale on arrival.
func (e *Engine) compile(sel *ast.Select, env *actionEnv, k knobs) (*compiled, error) {
	c, err := e.build(sel, env)
	if err != nil {
		return nil, err
	}
	h := e.Heuristic()
	c.targets = e.auditTargets(k.auditAll)
	if len(c.targets) > 0 {
		for _, ae := range c.targets {
			p := &core.Probe{Expr: ae}
			c.probes = append(c.probes, p)
			c.root = core.Instrument(c.root, ae, p, h)
		}
		// A query touching no sensitive table (e.g. a trigger body reading
		// ACCESSED) is not an audited query: classify only when
		// instrumentation actually placed an operator.
		if core.CountAuditOps(c.root, true) > 0 {
			c.hasAudit = true
			// The offline auditor's lineage rule decides exactness, on the
			// serial plan it was written for. It vouches for hcn placement
			// only: under leaf or highest no target counts exact.
			c.exact = make([]bool, len(c.targets))
			if h == core.HighestCommutativeNode {
				for i, ae := range c.targets {
					c.exact[i] = offline.Classify(e.cat, c.root, ae) == ""
				}
			}
		}
	}
	// Parallelize last, over the instrumented plan, so audit operators
	// land inside fragments and fork worker-local sinks.
	if k.workers >= 2 {
		c.root = opt.Parallelize(c.root, e.tableEstimate, k.workers, k.minRows)
		c.parallel = planIsParallel(c.root)
	}
	for _, col := range c.root.Schema() {
		c.columns = append(c.columns, col.Name)
		c.kinds = append(c.kinds, col.Kind)
	}
	return c, nil
}

// record points the plan's probes at a fresh ACCESSED state and
// returns it.
func (c *compiled) record() *core.Accessed {
	acc := core.NewAccessed()
	for _, p := range c.probes {
		p.Acc = acc
	}
	return acc
}

// placementExact reports whether every target's ACCESSED set is exact:
// the placement_exact outcome. Targets the plan never reads classify
// exact (nothing observed, nothing accessed), so only instrumented ones
// can make it false.
func (c *compiled) placementExact() bool {
	for _, x := range c.exact {
		if !x {
			return false
		}
	}
	return true
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

// installProbes gives a cloned plan probes of its own: every audit
// operator (main tree and all subquery blocks) gets a fresh Probe for
// its expression, one per target shared by all of the target's
// operators, exactly as compile's instrumentation shares one. It
// returns them in targets order.
func installProbes(root plan.Node, targets []*core.AuditExpression) []*core.Probe {
	probes := make([]*core.Probe, len(targets))
	for i, ae := range targets {
		probes[i] = &core.Probe{Expr: ae}
	}
	var install func(root plan.Node)
	install = func(root plan.Node) {
		plan.Walk(root, func(n plan.Node) {
			a, ok := n.(*plan.Audit)
			if !ok {
				return
			}
			old, ok := a.Sink.(*core.Probe)
			if !ok {
				return
			}
			for i, ae := range targets {
				if ae == old.Expr {
					a.Sink = probes[i]
				}
			}
		})
		plan.Subplans(root, func(sq *plan.Subquery) { install(sq.Plan) })
	}
	install(root)
	return probes
}
