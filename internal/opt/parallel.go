package opt

import (
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// EstimateFn supplies the planner's input-size estimate for a stored
// table (the engine passes current table cardinality). Parallelism is
// gated on it: small inputs never pay worker startup and exchange
// costs.
type EstimateFn func(table string) int64

// Parallelize rewrites a plan for morsel-driven parallel execution
// with the given worker budget: pipeline fragments whose driving scan
// is big enough are marked parallel and placed under a Gather
// exchange, and qualifying aggregates switch to two-phase execution.
// The rewrite is correctness-first:
//
//   - Nothing below a Limit is parallelized. The serial executor's
//     bounded-work property (a LIMIT stops scanning — and stops audit
//     probes observing — once satisfied) depends on row arrival order,
//     which an exchange does not preserve; keeping those subtrees
//     serial keeps ACCESSED states identical to serial execution.
//   - Aggregates with order-sensitive folding (SUM/AVG over arguments
//     not provably integer) keep fully serial inputs, so float
//     accumulation order — and therefore the result bytes — cannot
//     depend on the worker count. Two-phase execution additionally
//     excludes DISTINCT aggregates, whose per-worker seen-sets do not
//     merge into correct counts.
//   - Fragments are subquery-free: subplan execution shares mutable
//     evaluation state that must stay single-threaded.
//
// Sort and Aggregate are pipeline breakers that consume their input
// entirely regardless of operators above them, so both reset the
// Limit restriction for their subtrees. Row order is only guaranteed
// above an explicit Sort (DESIGN.md §10).
func Parallelize(root plan.Node, est EstimateFn, workers, minRows int) plan.Node {
	if workers < 2 || est == nil {
		return root
	}
	p := &parallelizer{est: est, workers: workers, minRows: int64(minRows)}
	return p.rewrite(root, false)
}

type parallelizer struct {
	est     EstimateFn
	workers int
	minRows int64
}

// rewrite walks the tree top-down. serial=true means "no exchange may
// be introduced at or below this point" — set under Limit (bounded-
// work semantics) and under order-sensitive aggregates (result
// determinism); pipeline breakers reset it.
func (p *parallelizer) rewrite(n plan.Node, serial bool) plan.Node {
	if !serial && p.fragmentOK(n) {
		if p.big(n) {
			markSpine(n)
			return &plan.Gather{Child: n, Workers: p.workers}
		}
		// A well-shaped but small fragment stays serial as-is; its
		// interior is exactly the operators fragmentOK inspected, so
		// there is nothing further down to rewrite.
		return n
	}
	switch x := n.(type) {
	case *plan.Limit:
		x.Child = p.rewrite(x.Child, true)
		return x
	case *plan.Sort:
		x.Child = p.rewrite(x.Child, false)
		return x
	case *plan.Distinct:
		x.Child = p.rewrite(x.Child, serial)
		return x
	case *plan.Aggregate:
		// The aggregate consumes its whole child no matter what sits
		// above it, so the incoming serial flag does not constrain the
		// subtree: emission order is sorted-by-key on every path, which
		// keeps Limit-over-Aggregate deterministic.
		if p.twoPhaseOK(x) && p.fragmentOK(x.Child) && p.big(x.Child) {
			markSpine(x.Child)
			x.Parallel = true
			return x
		}
		x.Child = p.rewrite(x.Child, !p.orderInsensitive(x))
		return x
	case *plan.Join:
		x.Left = p.rewrite(x.Left, serial)
		x.Right = p.rewrite(x.Right, serial)
		return x
	case *plan.Filter:
		x.Child = p.rewrite(x.Child, serial)
		return x
	case *plan.Project:
		x.Child = p.rewrite(x.Child, serial)
		return x
	case *plan.Audit:
		x.Child = p.rewrite(x.Child, serial)
		return x
	case *plan.Gather:
		// Already parallelized (defensive: cached or re-optimized plans
		// are never rewritten twice).
		return x
	default:
		return n
	}
}

// fragmentOK reports whether n's subtree is a shape the parallel
// fragment builder can replicate per worker: a spine of Scan / Filter
// / Project / Audit / equi-Join (recursing into the probe side only —
// the build side runs once, shared), with every worker-evaluated
// expression subquery-free.
func (p *parallelizer) fragmentOK(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Scan:
		return exprSafe(x.Pushed)
	case *plan.Filter:
		return exprSafe(x.Pred) && p.fragmentOK(x.Child)
	case *plan.Project:
		return exprsSafe(x.Exprs) && p.fragmentOK(x.Child)
	case *plan.Audit:
		return p.fragmentOK(x.Child)
	case *plan.Join:
		if len(x.LeftKeys) == 0 {
			return false
		}
		if x.Kind != plan.JoinInner && x.Kind != plan.JoinLeft {
			return false
		}
		return exprsSafe(x.LeftKeys) && exprsSafe(x.RightKeys) &&
			exprSafe(x.Residual) && p.fragmentOK(x.Left)
	default:
		return false
	}
}

// big estimates the fragment's driving input — the left-spine scan —
// against the parallelism threshold. An index lookup is never big,
// whatever the table's size: it reads the matching rows only, and a
// worker pool started for a handful of rows costs several times the
// lookup itself.
func (p *parallelizer) big(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Scan:
		return !x.IndexPoint() && p.est(x.Table) >= p.minRows
	case *plan.Filter:
		return p.big(x.Child)
	case *plan.Project:
		return p.big(x.Child)
	case *plan.Audit:
		return p.big(x.Child)
	case *plan.Join:
		return p.big(x.Left)
	}
	return false
}

// markSpine flags the fragment's scans and joins for parallel
// execution so EXPLAIN shows them and the executor builds shared
// morsel sources and partitioned hash tables for them.
func markSpine(n plan.Node) {
	switch x := n.(type) {
	case *plan.Scan:
		x.Parallel = true
	case *plan.Filter:
		markSpine(x.Child)
	case *plan.Project:
		markSpine(x.Child)
	case *plan.Audit:
		markSpine(x.Child)
	case *plan.Join:
		x.Parallel = true
		markSpine(x.Left)
	}
}

// twoPhaseOK reports whether the aggregate can run as per-worker
// partials merged at close: every fold must be order-free, DISTINCT is
// excluded (seen-sets do not merge), and the worker-evaluated group-by
// and argument expressions must be subquery-free.
func (p *parallelizer) twoPhaseOK(a *plan.Aggregate) bool {
	if !p.orderInsensitive(a) {
		return false
	}
	for _, s := range a.Aggs {
		if s.Distinct {
			return false
		}
		if s.Arg != nil && !exprSafe(s.Arg) {
			return false
		}
	}
	return exprsSafe(a.GroupBy)
}

// orderInsensitive reports whether every fold is independent of input
// arrival order. COUNT/MIN/MAX always are; SUM and AVG only when the
// argument is a bare column of provably integer kind — float addition
// does not commute bitwise, so a float sum over an exchange would vary
// with the morsel interleaving.
func (p *parallelizer) orderInsensitive(a *plan.Aggregate) bool {
	sch := a.Child.Schema()
	for _, s := range a.Aggs {
		switch s.Func {
		case plan.AggCount, plan.AggMin, plan.AggMax:
			// order-free
		case plan.AggSum, plan.AggAvg:
			col, ok := s.Arg.(*plan.Col)
			if !ok || col.Idx < 0 || col.Idx >= len(sch) {
				return false
			}
			if k := sch[col.Idx].Kind; k != value.KindInt && k != value.KindBool {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// exprSafe reports that e (possibly nil) contains no subquery.
func exprSafe(e plan.Expr) bool {
	if e == nil {
		return true
	}
	safe := true
	plan.WalkExprTree(e, func(x plan.Expr) {
		if _, bad := x.(*plan.Subquery); bad {
			safe = false
		}
	})
	return safe
}

func exprsSafe(es []plan.Expr) bool {
	for _, e := range es {
		if !exprSafe(e) {
			return false
		}
	}
	return true
}
