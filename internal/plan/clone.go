package plan

// CloneNode deep-copies a plan tree so the copy can be executed and
// mutated (audit-sink rebinding) independently of the original. It is
// how the engine's shared plan cache hands one immutable template to
// many sessions: each adoption clones the node structs, while
// expressions — immutable during execution — stay shared between
// template and clones.
//
// The one exception is an expression tree containing a *Subquery:
// subquery plans embed Audit operators whose Sink field is rebound per
// execution, so any expression path that reaches a Subquery is cloned
// too, along with the subplan itself.
func CloneNode(n Node) Node {
	if n == nil {
		return nil
	}
	switch x := n.(type) {
	case *Scan:
		c := *x
		c.Pushed = cloneExpr(x.Pushed)
		return &c
	case *ValuesScan:
		c := *x
		return &c
	case *Filter:
		c := *x
		c.Child = CloneNode(x.Child)
		c.Pred = cloneExpr(x.Pred)
		return &c
	case *Project:
		c := *x
		c.Child = CloneNode(x.Child)
		c.Exprs = cloneExprs(x.Exprs)
		return &c
	case *Join:
		c := *x
		c.Left = CloneNode(x.Left)
		c.Right = CloneNode(x.Right)
		c.Cond = cloneExpr(x.Cond)
		c.LeftKeys = cloneExprs(x.LeftKeys)
		c.RightKeys = cloneExprs(x.RightKeys)
		c.Residual = cloneExpr(x.Residual)
		return &c
	case *Aggregate:
		c := *x
		c.Child = CloneNode(x.Child)
		c.GroupBy = cloneExprs(x.GroupBy)
		if len(x.Aggs) > 0 {
			c.Aggs = make([]AggSpec, len(x.Aggs))
			for i, a := range x.Aggs {
				c.Aggs[i] = a
				c.Aggs[i].Arg = cloneExpr(a.Arg)
			}
		}
		return &c
	case *Sort:
		c := *x
		c.Child = CloneNode(x.Child)
		if len(x.Keys) > 0 {
			c.Keys = make([]SortKey, len(x.Keys))
			for i, k := range x.Keys {
				c.Keys[i] = k
				c.Keys[i].Expr = cloneExpr(k.Expr)
			}
		}
		return &c
	case *Limit:
		c := *x
		c.Child = CloneNode(x.Child)
		return &c
	case *Distinct:
		c := *x
		c.Child = CloneNode(x.Child)
		return &c
	case *Gather:
		c := *x
		c.Child = CloneNode(x.Child)
		return &c
	case *Audit:
		c := *x
		c.Child = CloneNode(x.Child)
		return &c
	default:
		// Unknown operator: no safe way to copy, share it. Today every
		// operator the planner emits is handled above.
		return n
	}
}

// hasSubquery reports whether the expression tree contains a subquery.
func hasSubquery(e Expr) bool {
	found := false
	WalkExprTree(e, func(x Expr) {
		if _, ok := x.(*Subquery); ok {
			found = true
		}
	})
	return found
}

// cloneExpr returns e itself when it contains no subquery (expressions
// are immutable during execution, so sharing is safe), and a deep copy
// — subplans included — when it does.
func cloneExpr(e Expr) Expr {
	if e == nil || !hasSubquery(e) {
		return e
	}
	return deepCloneExpr(e)
}

func cloneExprs(es []Expr) []Expr {
	cloned := false
	for _, e := range es {
		if hasSubquery(e) {
			cloned = true
			break
		}
	}
	if !cloned {
		return es
	}
	out := make([]Expr, len(es))
	for i, e := range es {
		out[i] = cloneExpr(e)
	}
	return out
}

func deepCloneExpr(e Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Cmp:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *And:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *Or:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *Not:
		c := *x
		c.X = deepCloneExpr(x.X)
		return &c
	case *Arith:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *Neg:
		c := *x
		c.X = deepCloneExpr(x.X)
		return &c
	case *Concat:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *Like:
		c := *x
		c.L, c.R = deepCloneExpr(x.L), deepCloneExpr(x.R)
		return &c
	case *IsNull:
		c := *x
		c.X = deepCloneExpr(x.X)
		return &c
	case *Between:
		c := *x
		c.X, c.Lo, c.Hi = deepCloneExpr(x.X), deepCloneExpr(x.Lo), deepCloneExpr(x.Hi)
		return &c
	case *InList:
		c := *x
		c.X = deepCloneExpr(x.X)
		c.List = make([]Expr, len(x.List))
		for i, item := range x.List {
			c.List[i] = deepCloneExpr(item)
		}
		return &c
	case *Func:
		c := *x
		c.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			c.Args[i] = deepCloneExpr(a)
		}
		return &c
	case *Case:
		c := *x
		c.Operand = deepCloneExpr(x.Operand)
		c.Whens = make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			c.Whens[i] = CaseWhen{Cond: deepCloneExpr(w.Cond), Result: deepCloneExpr(w.Result)}
		}
		c.Else = deepCloneExpr(x.Else)
		return &c
	case *Subquery:
		c := *x
		c.Plan = CloneNode(x.Plan)
		c.Probe = deepCloneExpr(x.Probe)
		return &c
	default:
		// Leaves (Col, Const, Param, Outer) are immutable: share.
		return e
	}
}

// CarryColumn makes column idx of below's output survive to root's
// output and returns its ordinal there. The path from root down to
// below may hold only Project, Sort and Limit: Sort and Limit pass
// their input's columns through, and every Project on the path gets
// the column appended as a hidden trailing output, so no ordinal an
// existing expression refers to moves. ok=false (and no change) for
// any other operator on the path or when below is not under root.
//
// It rewrites Projects in place and is meant for a plan the caller
// owns: CloneNode's copies share their expression slices with the
// template, so the appended column goes into a fresh slice.
func CarryColumn(root, below Node, idx int) (int, bool) {
	if root == below {
		return idx, true
	}
	switch x := root.(type) {
	case *Sort:
		return CarryColumn(x.Child, below, idx)
	case *Limit:
		return CarryColumn(x.Child, below, idx)
	case *Project:
		in, ok := CarryColumn(x.Child, below, idx)
		if !ok {
			return 0, false
		}
		info := x.Child.Schema()[in]
		x.Exprs = append(x.Exprs[:len(x.Exprs):len(x.Exprs)], &Col{Idx: in, Name: info.Name})
		x.Out = append(x.Out[:len(x.Out):len(x.Out)], info)
		return len(x.Exprs) - 1, true
	}
	return 0, false
}
