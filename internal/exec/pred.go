package exec

import (
	"strings"

	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
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

// Row states of a batch under a predicate. Terms run one at a time over
// the whole batch, and a row's state follows exactly the left-to-right
// scan an And tree makes of that row alone: it stops at the first term
// that is False for the row or that leaves the fast path.
const (
	rowTrue    uint8 = iota // every term so far held
	rowUnknown              // no term was False and at least one was Unknown
	rowFalse                // a term was False, or the visibility mask hid the row
	rowSlow                 // a term met a kind pair outside the fast path: the interpreter decides
)

// batchPred evaluates a scan's or a filter's predicate a batch at a
// time: the compiled fast path runs term by term over a selection
// vector, each term one tight loop over the rows still selected, and
// leaves a state per row; the rows it cannot decide go to the
// interpreter afterwards, in row order. The state and selection buffers
// are batch-sized and kept across runs.
type batchPred struct {
	pred  plan.Expr // nil: every row holds
	quick quickPred
	state []uint8 // per row of the batch: own, or allTrue
	own   []uint8
	sel   []int32      // rows still claimed by the fast path, ascending
	kinds []value.Kind // a term's column kinds, per selected row
}

func newBatchPred(pred plan.Expr) batchPred {
	p := batchPred{pred: pred}
	if pred != nil {
		p.quick = compilePred(pred)
	}
	return p
}

// bind resolves the fast path's constants for a run.
func (p *batchPred) bind(ctx *Ctx) { p.quick.bind(ctx) }

// allTrue is the state of a batch nothing can reject. It is never
// written.
var allTrue [BatchSize]uint8

// eval decides an n-row batch: rowFalse for each row the mask hides
// (ids[i] is row i's RowID; a nil mask hides nothing), then the fast
// path over the rest. rows holds at least n rows.
func (p *batchPred) eval(rows []value.Row, n int, mask *storage.Mask, table string, ids []storage.RowID) {
	if p.pred == nil && mask == nil && n <= len(allTrue) {
		p.state = allTrue[:n]
		return
	}
	p.own = sized(p.own, n)
	p.state, p.sel = p.own, sized(p.sel, n)[:0]
	for i := range n {
		if mask != nil && mask.Hidden(table, ids[i]) {
			p.state[i] = rowFalse
			continue
		}
		p.state[i] = rowTrue
		p.sel = append(p.sel, int32(i))
	}
	if p.pred == nil {
		return
	}
	if !p.quick.ok {
		for _, i := range p.sel {
			p.state[i] = rowSlow
		}
		return
	}
	p.kinds = sized(p.kinds, n)
	for t := range p.quick.terms {
		if len(p.sel) == 0 {
			break
		}
		p.sel = p.quick.terms[t].narrow(rows, p.state, p.sel, p.kinds)
	}
}

// interpret decides a rowSlow row with the interpreter, counting it
// into st.PredInterpreted.
func (p *batchPred) interpret(row value.Row, ctx *Ctx, st *obs.NodeStats) (bool, error) {
	st.PredInterpreted++
	v, err := p.pred.Eval(ctx.Eval, row)
	if err != nil {
		return false, err
	}
	return value.TriFromValue(v) == value.True, nil
}

// narrow applies the term to the selected rows in one loop and returns
// the selection less the rows it decided: those it finds False and
// those whose kind pair it does not claim. sel is narrowed in place.
func (t *quickTerm) narrow(rows []value.Row, state []uint8, sel []int32, kinds []value.Kind) []int32 {
	// The kinds are gathered first, in a loop that does nothing else, so
	// the rows' cache misses overlap; the comparisons then find the rows
	// in cache.
	kinds = kinds[:len(sel)]
	for j, i := range sel {
		if row := rows[i]; t.col < len(row) {
			kinds[j] = row[t.col].Kind
		}
	}
	out := sel[:0]
	for j, i := range sel {
		row := rows[i]
		if t.col >= len(row) {
			state[i] = rowSlow
			continue
		}
		tri, ok := t.test(kinds[j], &row[t.col])
		switch {
		case !ok:
			state[i] = rowSlow
		case tri == value.False:
			state[i] = rowFalse
		default:
			if tri == value.Unknown {
				state[i] = rowUnknown
			}
			out = append(out, i)
		}
	}
	return out
}

// test returns the three-valued truth of `v op k`, or ok=false when
// v's kind (kind) does not pair with the constant's on the fast path.
func (t *quickTerm) test(kind value.Kind, v *value.Value) (value.Tri, bool) {
	if kind == value.KindNull {
		return value.Unknown, true
	}
	switch t.kind {
	case value.KindInt:
		switch kind {
		case value.KindInt, value.KindBool:
			return intHolds(t.op, v.I, t.c), true
		case value.KindFloat:
			return floatHolds(t.op, v.F, t.f), true
		}
	case value.KindFloat:
		switch kind {
		case value.KindInt, value.KindBool, value.KindFloat:
			return floatHolds(t.op, v.Float(), t.f), true
		}
	case value.KindDate:
		if kind == value.KindDate {
			return intHolds(t.op, v.I, t.c), true
		}
	case value.KindString:
		if kind == value.KindString {
			switch t.op {
			case plan.CmpEq:
				return value.TriOf(v.S == t.s), true
			case plan.CmpNe:
				return value.TriOf(v.S != t.s), true
			}
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
