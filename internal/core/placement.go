package core

import (
	"strings"

	"auditdb/internal/plan"
)

// Heuristic selects an audit-operator placement algorithm (§III-C).
type Heuristic uint8

// Placement heuristics.
const (
	// LeafNode places an audit operator directly above each leaf scan
	// of the sensitive table (after the pushed single-table predicate).
	// No false negatives (Claim 3.5), many false positives.
	LeafNode Heuristic = iota
	// HighestNode places the operator at the highest edge where the
	// partition-by column is visible. Fewest false positives but can
	// produce FALSE NEGATIVES (Example 3.2); implemented only as the
	// strawman it is in the paper.
	HighestNode
	// HighestCommutativeNode is Algorithm 1: leaf placement followed by
	// pull-up through commutative operators (filters, joins, sorts,
	// ID-preserving projections), stopping below group-by, top-k,
	// distinct and subquery boundaries. No false negatives (Claim 3.6),
	// no false positives on select-join queries (Theorem 3.7).
	HighestCommutativeNode
)

// String names the heuristic.
func (h Heuristic) String() string {
	switch h {
	case LeafNode:
		return "leaf-node"
	case HighestNode:
		return "highest-node"
	case HighestCommutativeNode:
		return "hcn"
	default:
		return "unknown"
	}
}

// Instrument inserts audit operators for the expression into the plan
// (including every subquery block, each instrumented independently —
// Example 3.8(c)) and returns the new root. The sink receives the
// partition-by values that flow past each operator.
func Instrument(root plan.Node, e *AuditExpression, sink plan.AuditSink, h Heuristic) plan.Node {
	// Instrument subquery plans first; their roots are pinned inside
	// expressions, so each block is an independent placement problem.
	plan.Subplans(root, func(sq *plan.Subquery) {
		sq.Plan = Instrument(sq.Plan, e, sink, h)
	})

	holder := &rootHolder{child: root}
	switch h {
	case HighestNode:
		placeHighest(holder, e, sink)
	case LeafNode:
		insertAtLeaves(holder, e, sink)
	case HighestCommutativeNode:
		insertAtLeaves(holder, e, sink)
		pullUp(holder)
	}
	return holder.child
}

// rootHolder gives the pull-up loop a parent for the true root.
type rootHolder struct{ child plan.Node }

func (r *rootHolder) Schema() plan.Schema   { return r.child.Schema() }
func (r *rootHolder) Children() []plan.Node { return []plan.Node{r.child} }
func (r *rootHolder) SetChild(_ int, n plan.Node) {
	r.child = n
}
func (r *rootHolder) Label() string { return "Root" }

// insertAtLeaves wraps every scan of the sensitive table in an audit
// operator probing the partition-by column. Each instance of the table
// (self-joins) receives its own operator.
func insertAtLeaves(holder *rootHolder, e *AuditExpression, sink plan.AuditSink) {
	var visit func(parent plan.Node, slot int, n plan.Node)
	visit = func(parent plan.Node, slot int, n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			if strings.EqualFold(s.Table, e.Meta.SensitiveTable) {
				idx, found := s.Out.IndexOf(s.Alias, e.Meta.PartitionBy)
				if !found {
					idx, found = s.Out.IndexOf("", e.Meta.PartitionBy)
				}
				if found {
					parent.SetChild(slot, &plan.Audit{Child: s, Name: e.Meta.Name, IDIdx: idx, Sink: sink, Pruner: e})
				}
			}
			return
		}
		for i, c := range n.Children() {
			visit(n, i, c)
		}
	}
	visit(holder, 0, holder.child)
}

// pullUp is the pull-up loop of Algorithm 1: repeatedly commute each
// audit operator with its parent until no operator can move.
func pullUp(holder *rootHolder) {
	for moved := true; moved; {
		moved = false
		var visit func(grand plan.Node, gslot int, parent plan.Node)
		visit = func(grand plan.Node, gslot int, parent plan.Node) {
			if moved {
				return
			}
			for i, c := range parent.Children() {
				a, ok := c.(*plan.Audit)
				if ok && parent != grand {
					if newIdx, commutes := commute(a, parent, i); commutes {
						// Swap: parent absorbs the audit's child; the
						// audit moves above the parent.
						parent.SetChild(i, a.Child)
						a.Child = parent
						a.IDIdx = newIdx
						grand.SetChild(gslot, a)
						moved = true
						return
					}
				}
				visit(parent, i, c)
			}
		}
		// The holder acts as its own grandparent for the root.
		visit(holder, 0, holder)
	}
}

// commute reports whether an audit operator sitting at child slot of
// parent may move above parent, and the partition-by column's ordinal
// in parent's output if so. This encodes the paper's commutativity
// rules: the audit operator behaves like a filter on the partition-by
// key, so it commutes with selections, joins and sorts, but not with
// group-by, top-k/limit, distinct, or another audit operator.
func commute(a *plan.Audit, parent plan.Node, slot int) (int, bool) {
	switch p := parent.(type) {
	case *plan.Filter, *plan.Sort:
		return a.IDIdx, true
	case *plan.Join:
		if slot == 0 {
			return a.IDIdx, true
		}
		return a.IDIdx + len(p.Left.Schema()), true
	case *plan.Project:
		// The operator passes a projection only if the projection
		// forwards the partition-by column unchanged (identity column
		// reference). Since scans always emit whole base rows, IDs are
		// implicitly propagated up to each block's root projection.
		for k, ex := range p.Exprs {
			if col, ok := ex.(*plan.Col); ok && col.Idx == a.IDIdx {
				return k, true
			}
		}
		return 0, false
	default:
		// Aggregate, Limit, Distinct, Audit, ValuesScan parents block.
		return 0, false
	}
}

// HoistAudit moves the audit operator on the plan's unary spine from
// where pull-up left it to the root, carrying the partition-by column
// up as a hidden trailing column (plan.CarryColumn): the operator then
// observes the IDs of the rows the query returns, top-k cut included.
// It rewrites the plan in place and is for plans the caller owns (the
// offline auditor's clones); ok=false leaves the plan as it was, when
// no operator sits on the spine or something other than Project, Sort
// and Limit sits above it.
func HoistAudit(root plan.Node) (plan.Node, bool) {
	holder := &rootHolder{child: root}
	var parent plan.Node = holder
	for {
		kids := parent.Children()
		if len(kids) != 1 {
			return root, false
		}
		a, isAudit := kids[0].(*plan.Audit)
		if !isAudit {
			parent = kids[0]
			continue
		}
		parent.SetChild(0, a.Child)
		idx, ok := plan.CarryColumn(holder.child, a.Child, a.IDIdx)
		if !ok {
			parent.SetChild(0, a)
			return root, false
		}
		a.Child, a.IDIdx = holder.child, idx
		return a, true
	}
}

// placeHighest implements the highest-node strawman: one operator at
// the shallowest node whose schema still exposes the partition-by
// column and that reads the sensitive table. Used to demonstrate false
// negatives (Example 3.2). A block that never scans the sensitive table
// is not instrumented, however its columns are named: a trigger body's
// read of ACCESSED would otherwise re-fire its own trigger, and a read
// of another table would report that table's values as accessed IDs.
func placeHighest(holder *rootHolder, e *AuditExpression, sink plan.AuditSink) {
	var best struct {
		parent plan.Node
		slot   int
		node   plan.Node
		idx    int
		depth  int
		found  bool
	}
	var visit func(parent plan.Node, slot int, n plan.Node, depth int)
	visit = func(parent plan.Node, slot int, n plan.Node, depth int) {
		if idx, ok := n.Schema().IndexOf("", e.Meta.PartitionBy); ok {
			if !scans(n, e.Meta.SensitiveTable) {
				return // nor does any subtree of n
			}
			if !best.found || depth < best.depth {
				best.parent, best.slot, best.node, best.idx, best.depth, best.found =
					parent, slot, n, idx, depth, true
			}
			return // no need to descend: this is the highest edge here
		}
		for i, c := range n.Children() {
			visit(n, i, c, depth+1)
		}
	}
	visit(holder, 0, holder.child, 0)
	if best.found {
		best.parent.SetChild(best.slot, &plan.Audit{Child: best.node, Name: e.Meta.Name, IDIdx: best.idx, Sink: sink, Pruner: e})
	}
}

// scans reports whether the plan reads the table (subquery blocks
// excluded: they are instrumented on their own).
func scans(root plan.Node, table string) bool {
	found := false
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok && strings.EqualFold(s.Table, table) {
			found = true
		}
	})
	return found
}

// CountAuditOps returns how many audit operators are in the plan
// (excluding subquery blocks when deep is false).
func CountAuditOps(root plan.Node, deep bool) int {
	n := 0
	plan.Walk(root, func(node plan.Node) {
		if _, ok := node.(*plan.Audit); ok {
			n++
		}
	})
	if deep {
		plan.Subplans(root, func(sq *plan.Subquery) {
			n += CountAuditOps(sq.Plan, true)
		})
	}
	return n
}
