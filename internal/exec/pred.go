package exec

import (
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// quickPred is the compiled fast path of a row predicate: a
// conjunction of integer column-vs-constant comparisons, evaluated
// without interface dispatch or Value boxing. compilePred fixes its
// shape once, when the operator is built; bind resolves the constants
// at every reset, so one compiled predicate serves every binding of a
// cached plan, and a correlated outer value is re-read per run.
//
// The fast path only claims a row (handled=true) when the runtime
// kinds match what was compiled, so results are bit-identical to the
// interpreter: integer/integer comparison is exactly value.Compare's
// both-int branch, and a NULL column value yields Unknown exactly as
// CompareSQL would. Compiled predicates never error.
type quickPred struct {
	terms []quickTerm
	// ok says the fast path applies to this run: the predicate has a
	// supported shape and every constant bound to an integer.
	ok bool
}

// quickTerm is one comparison `col op k`, k row-independent (a literal,
// a prepared-statement parameter or an outer reference).
type quickTerm struct {
	col int
	op  plan.CmpOp
	k   plan.Expr
	c   int64 // k's value under the current binding
}

// compilePred returns the fast-path shape of e — a Cmp of a column
// with a constant, or an And tree of them — or a predicate that never
// applies for any other shape.
func compilePred(e plan.Expr) quickPred {
	var q quickPred
	if !q.add(e) {
		q.terms = nil
	}
	return q
}

// add appends e's comparisons in evaluation order. An And tree
// flattens left to right without changing results: both the tree and
// the flat scan stop at the first term, in that order, that is
// unhandled or False.
func (q *quickPred) add(e plan.Expr) bool {
	switch x := e.(type) {
	case *plan.And:
		return q.add(x.L) && q.add(x.R)
	case *plan.Cmp:
		if col, ok := x.L.(*plan.Col); ok && constShape(x.R) {
			q.terms = append(q.terms, quickTerm{col: col.Idx, op: x.Op, k: x.R})
			return true
		}
		if col, ok := x.R.(*plan.Col); ok && constShape(x.L) {
			// const <op> col  ≡  col <flip(op)> const
			q.terms = append(q.terms, quickTerm{col: col.Idx, op: flipCmp(x.Op), k: x.L})
			return true
		}
	}
	return false
}

// constShape reports whether constValue can evaluate e.
func constShape(e plan.Expr) bool {
	switch e.(type) {
	case *plan.Const, *plan.Param, *plan.Outer:
		return true
	}
	return false
}

// bind resolves the constants under ctx's bindings. A constant that
// does not evaluate to an integer turns the fast path off for this
// run; the interpreter handles every row.
func (q *quickPred) bind(ctx *Ctx) {
	q.ok = len(q.terms) > 0
	for i := range q.terms {
		v, ok := constValue(q.terms[i].k, ctx)
		if !ok || v.Kind != value.KindInt {
			q.ok = false
			return
		}
		q.terms[i].c = v.I
	}
}

// eval returns the three-valued truth of the conjunction on row, or
// handled=false when some row value's kind is outside the fast path.
func (q *quickPred) eval(row value.Row) (value.Tri, bool) {
	t := value.True
	for i := range q.terms {
		tt, ok := q.terms[i].eval(row)
		if !ok {
			return value.Unknown, false
		}
		if tt == value.False {
			return value.False, true // And(False, x) = False for all x
		}
		t = t.And(tt)
	}
	return t, true
}

func (t *quickTerm) eval(row value.Row) (value.Tri, bool) {
	if t.col >= len(row) {
		return value.Unknown, false
	}
	v := row[t.col]
	if v.Kind == value.KindNull {
		return value.Unknown, true
	}
	if v.Kind != value.KindInt {
		return value.Unknown, false
	}
	var b bool
	switch t.op {
	case plan.CmpEq:
		b = v.I == t.c
	case plan.CmpNe:
		b = v.I != t.c
	case plan.CmpLt:
		b = v.I < t.c
	case plan.CmpLe:
		b = v.I <= t.c
	case plan.CmpGt:
		b = v.I > t.c
	case plan.CmpGe:
		b = v.I >= t.c
	}
	return value.TriOf(b), true
}

func flipCmp(op plan.CmpOp) plan.CmpOp {
	switch op {
	case plan.CmpLt:
		return plan.CmpGt
	case plan.CmpLe:
		return plan.CmpGe
	case plan.CmpGt:
		return plan.CmpLt
	case plan.CmpGe:
		return plan.CmpLe
	}
	return op // Eq and Ne are symmetric
}
