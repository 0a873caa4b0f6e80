package exec

import (
	"strings"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// quickPred is the compiled fast path of a row predicate: a
// conjunction of column-vs-constant comparisons, evaluated without
// interface dispatch or Value boxing. compilePred fixes its shape once,
// when the operator is built; bind resolves the constants at every
// reset, so one compiled predicate serves every binding of a cached
// plan, and a correlated outer value is re-read per run.
//
// Each term compares the way the bound constant's kind says, and only
// claims a row (handled=true) whose kind pairs with it in one of
// value.Compare's branches, reproduced exactly, so results are
// bit-identical to the interpreter:
//
//	constant      row value        comparison
//	INT, BOOL     INT, BOOL        int64 (Compare's integer branch)
//	INT, BOOL     FLOAT            float64 (its float branch)
//	FLOAT         INT, BOOL, FLOAT float64 (its float branch)
//	DATE          DATE             int64 (day numbers)
//	STRING        STRING           strings.Compare
//	NULL          any              Unknown
//
// A NULL row value yields Unknown, as CompareSQL does. Every other
// pair (DATE against a string, a number against a string, ...) is left
// to the interpreter. A term `k op col` runs as `col flip(op) k`, which
// is exact because each claimed comparison is antisymmetric: the float
// branch orders NaN equal to everything, from either side. Compiled
// predicates never error.
type quickPred struct {
	terms []quickTerm
	// ok says the fast path applies to this run: the predicate has a
	// supported shape and every constant evaluated.
	ok bool
}

// quickTerm is one comparison `col op k`, k row-independent (a literal,
// a prepared-statement parameter or an outer reference).
type quickTerm struct {
	col int
	op  plan.CmpOp
	k   plan.Expr
	// Under the current binding: the comparison the term runs, named by
	// its constant's kind (KindInt for INT and BOOL), and the constant
	// as an integer (INT, BOOL, DATE), a float (INT, BOOL, FLOAT) or a
	// string.
	kind value.Kind
	c    int64
	f    float64
	s    string
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
// does not evaluate turns the fast path off for this run; the
// interpreter handles every row.
func (q *quickPred) bind(ctx *Ctx) {
	q.ok = len(q.terms) > 0
	for i := range q.terms {
		t := &q.terms[i]
		v, ok := constValue(t.k, ctx)
		if !ok {
			q.ok = false
			return
		}
		t.kind, t.c, t.f, t.s = v.Kind, v.I, v.Float(), v.S
		if v.Kind == value.KindBool {
			t.kind = value.KindInt
		}
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
	v := &row[t.col]
	if v.Kind == value.KindNull {
		return value.Unknown, true
	}
	switch t.kind {
	case value.KindInt:
		switch v.Kind {
		case value.KindInt, value.KindBool:
			return intHolds(t.op, v.I, t.c), true
		case value.KindFloat:
			return floatHolds(t.op, v.F, t.f), true
		}
	case value.KindFloat:
		switch v.Kind {
		case value.KindInt, value.KindBool, value.KindFloat:
			return floatHolds(t.op, v.Float(), t.f), true
		}
	case value.KindDate:
		if v.Kind == value.KindDate {
			return intHolds(t.op, v.I, t.c), true
		}
	case value.KindString:
		if v.Kind == value.KindString {
			return signHolds(t.op, strings.Compare(v.S, t.s)), true
		}
	case value.KindNull:
		return value.Unknown, true
	}
	return value.Unknown, false
}

// intHolds compares two integers directly.
func intHolds(op plan.CmpOp, a, b int64) value.Tri {
	var r bool
	switch op {
	case plan.CmpEq:
		r = a == b
	case plan.CmpNe:
		r = a != b
	case plan.CmpLt:
		r = a < b
	case plan.CmpLe:
		r = a <= b
	case plan.CmpGt:
		r = a > b
	case plan.CmpGe:
		r = a >= b
	}
	return value.TriOf(r)
}

// floatHolds orders two floats as value.Compare does — neither less
// nor greater is equal, so NaN equals everything and -0 equals +0 —
// and applies op to that order.
func floatHolds(op plan.CmpOp, a, b float64) value.Tri {
	c := 0
	if a < b {
		c = -1
	} else if a > b {
		c = 1
	}
	return signHolds(op, c)
}

// signHolds applies op to a three-way comparison result.
func signHolds(op plan.CmpOp, c int) value.Tri {
	return intHolds(op, int64(c), 0)
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
