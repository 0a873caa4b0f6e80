package plan

import (
	"fmt"
	"strings"
	"time"

	"auditdb/internal/value"
)

// Expr is a compiled, resolvable expression evaluated against a row.
type Expr interface {
	Eval(ctx *EvalCtx, row value.Row) (value.Value, error)
	// String renders the compiled expression for plan display.
	String() string
}

// EvalCtx carries per-execution state needed by expressions: the outer
// row stack for correlated subqueries, session functions, the subquery
// runner installed by the executor, and a cache for uncorrelated
// subquery results.
type EvalCtx struct {
	// Outer is the stack of rows from enclosing queries; Outer[len-1]
	// is the immediately enclosing row.
	Outer []value.Row
	// Session supplies NOW()/USERID()/SQLTEXT() values.
	Session SessionInfo
	// RunSubquery executes a subplan and returns all of its rows. The
	// executor installs it; a nil RunSubquery makes subqueries error.
	RunSubquery func(n Node, ctx *EvalCtx) ([]value.Row, error)
	// Params holds positional parameter values for prepared statements.
	Params []value.Value

	subqCache map[Node][]value.Row
}

// SessionInfo provides values for session-scoped SQL functions.
type SessionInfo struct {
	User string
	SQL  string
	Now  time.Time
}

// PushOuter pushes a row onto the correlation stack.
func (c *EvalCtx) PushOuter(row value.Row) { c.Outer = append(c.Outer, row) }

// PopOuter removes the top of the correlation stack.
func (c *EvalCtx) PopOuter() { c.Outer = c.Outer[:len(c.Outer)-1] }

// ClearSubqueryCache forgets the uncorrelated subquery results cached
// on this context, so a context reused for another execution re-runs
// its subqueries against current data.
func (c *EvalCtx) ClearSubqueryCache() { clear(c.subqCache) }

// ---- Leaf expressions ----

// Col reads column Idx of the current row.
type Col struct {
	Idx  int
	Name string // display only
}

// Eval implements Expr.
func (e *Col) Eval(_ *EvalCtx, row value.Row) (value.Value, error) {
	if e.Idx >= len(row) {
		return value.Null, fmt.Errorf("column ordinal %d out of range (row has %d)", e.Idx, len(row))
	}
	return row[e.Idx], nil
}

func (e *Col) String() string {
	if e.Name != "" {
		return e.Name
	}
	return fmt.Sprintf("#%d", e.Idx)
}

// Outer reads a column from an enclosing query's current row; Up=1 is
// the immediate parent.
type Outer struct {
	Up   int
	Idx  int
	Name string
}

// Eval implements Expr.
func (e *Outer) Eval(ctx *EvalCtx, _ value.Row) (value.Value, error) {
	n := len(ctx.Outer)
	if e.Up <= 0 || e.Up > n {
		return value.Null, fmt.Errorf("correlated reference %s has no outer row (depth %d of %d)", e.Name, e.Up, n)
	}
	row := ctx.Outer[n-e.Up]
	if e.Idx >= len(row) {
		return value.Null, fmt.Errorf("outer column ordinal %d out of range", e.Idx)
	}
	return row[e.Idx], nil
}

func (e *Outer) String() string { return "outer:" + e.Name }

// Const is a literal value.
type Const struct {
	V value.Value
}

// Eval implements Expr.
func (e *Const) Eval(_ *EvalCtx, _ value.Row) (value.Value, error) { return e.V, nil }

func (e *Const) String() string { return e.V.SQL() }

// Param reads positional parameter Idx from the evaluation context
// (prepared statements).
type Param struct {
	Idx int
}

// Eval implements Expr.
func (e *Param) Eval(ctx *EvalCtx, _ value.Row) (value.Value, error) {
	if e.Idx < 0 || e.Idx >= len(ctx.Params) {
		return value.Null, fmt.Errorf("parameter $%d not bound (%d given)", e.Idx+1, len(ctx.Params))
	}
	return ctx.Params[e.Idx], nil
}

func (e *Param) String() string { return fmt.Sprintf("$%d", e.Idx+1) }

// ---- Operators ----

// CmpOp enumerates comparison operators for compiled comparisons.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// String renders the operator.
func (o CmpOp) String() string {
	return [...]string{"=", "<>", "<", "<=", ">", ">="}[o]
}

// Cmp compares two expressions with SQL NULL semantics.
type Cmp struct {
	Op   CmpOp
	L, R Expr
}

// Eval implements Expr.
func (e *Cmp) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	c, ok := value.CompareSQL(l, r)
	if !ok {
		return value.Null, nil
	}
	var b bool
	switch e.Op {
	case CmpEq:
		b = c == 0
	case CmpNe:
		b = c != 0
	case CmpLt:
		b = c < 0
	case CmpLe:
		b = c <= 0
	case CmpGt:
		b = c > 0
	case CmpGe:
		b = c >= 0
	}
	return value.NewBool(b), nil
}

func (e *Cmp) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

// And is three-valued conjunction.
type And struct{ L, R Expr }

// Eval implements Expr.
func (e *And) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	lt := value.TriFromValue(l)
	if lt == value.False {
		return value.NewBool(false), nil
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return lt.And(value.TriFromValue(r)).Value(), nil
}

func (e *And) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// Or is three-valued disjunction.
type Or struct{ L, R Expr }

// Eval implements Expr.
func (e *Or) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	lt := value.TriFromValue(l)
	if lt == value.True {
		return value.NewBool(true), nil
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return lt.Or(value.TriFromValue(r)).Value(), nil
}

func (e *Or) String() string { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// Not is three-valued negation.
type Not struct{ X Expr }

// Eval implements Expr.
func (e *Not) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	x, err := e.X.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return value.TriFromValue(x).Not().Value(), nil
}

func (e *Not) String() string { return "(NOT " + e.X.String() + ")" }

// Arith applies +,-,*,/,%.
type Arith struct {
	Op   byte
	L, R Expr
}

// Eval implements Expr.
func (e *Arith) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return value.Arith(e.Op, l, r)
}

func (e *Arith) String() string {
	return fmt.Sprintf("(%s %c %s)", e.L.String(), e.Op, e.R.String())
}

// Neg is numeric negation.
type Neg struct{ X Expr }

// Eval implements Expr.
func (e *Neg) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	x, err := e.X.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return value.Neg(x)
}

func (e *Neg) String() string { return "(-" + e.X.String() + ")" }

// Concat is string concatenation (||); NULL operands yield NULL.
type Concat struct{ L, R Expr }

// Eval implements Expr.
func (e *Concat) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	return value.NewString(l.String() + r.String()), nil
}

func (e *Concat) String() string { return "(" + e.L.String() + " || " + e.R.String() + ")" }

// Like matches L against pattern R.
type Like struct{ L, R Expr }

// Eval implements Expr.
func (e *Like) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	l, err := e.L.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	r, err := e.R.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	if l.IsNull() || r.IsNull() {
		return value.Null, nil
	}
	return value.NewBool(value.Like(l.String(), r.Str())), nil
}

func (e *Like) String() string { return "(" + e.L.String() + " LIKE " + e.R.String() + ")" }

// IsNull tests for NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// Eval implements Expr.
func (e *IsNull) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	x, err := e.X.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	return value.NewBool(x.IsNull() != e.Negate), nil
}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

// Between tests Lo <= X <= Hi with NULL semantics.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// Eval implements Expr.
func (e *Between) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	x, err := e.X.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	lo, err := e.Lo.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	hi, err := e.Hi.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	c1, ok1 := value.CompareSQL(lo, x)
	c2, ok2 := value.CompareSQL(x, hi)
	if !ok1 || !ok2 {
		return value.Null, nil
	}
	in := c1 <= 0 && c2 <= 0
	return value.NewBool(in != e.Negate), nil
}

func (e *Between) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
}

// InList tests membership in an expression list with SQL NULL
// semantics.
type InList struct {
	X      Expr
	List   []Expr
	Negate bool
}

// Eval implements Expr.
func (e *InList) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	x, err := e.X.Eval(ctx, row)
	if err != nil {
		return value.Null, err
	}
	if x.IsNull() {
		return value.Null, nil
	}
	sawNull := false
	for _, item := range e.List {
		v, err := item.Eval(ctx, row)
		if err != nil {
			return value.Null, err
		}
		if v.IsNull() {
			sawNull = true
			continue
		}
		if value.Compare(x, v) == 0 {
			return value.NewBool(!e.Negate), nil
		}
	}
	if sawNull {
		return value.Null, nil
	}
	return value.NewBool(e.Negate), nil
}

func (e *InList) String() string {
	parts := make([]string, len(e.List))
	for i, x := range e.List {
		parts[i] = x.String()
	}
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "IN (" + strings.Join(parts, ", ") + "))"
}

// Case evaluates CASE expressions (searched when Operand is nil).
type Case struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

// CaseWhen is one arm of a Case.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Eval implements Expr.
func (e *Case) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	var operand value.Value
	if e.Operand != nil {
		v, err := e.Operand.Eval(ctx, row)
		if err != nil {
			return value.Null, err
		}
		operand = v
	}
	for _, w := range e.Whens {
		c, err := w.Cond.Eval(ctx, row)
		if err != nil {
			return value.Null, err
		}
		matched := false
		if e.Operand != nil {
			cmp, ok := value.CompareSQL(operand, c)
			matched = ok && cmp == 0
		} else {
			matched = value.TriFromValue(c) == value.True
		}
		if matched {
			return w.Result.Eval(ctx, row)
		}
	}
	if e.Else != nil {
		return e.Else.Eval(ctx, row)
	}
	return value.Null, nil
}

func (e *Case) String() string { return "CASE..." }

// ---- Subqueries ----

// SubqKind distinguishes the three subquery expression forms.
type SubqKind uint8

// Subquery kinds.
const (
	SubqExists SubqKind = iota
	SubqIn
	SubqScalar
)

// Subquery evaluates EXISTS / IN / scalar subqueries. For correlated
// subqueries the current row is pushed onto the context's outer stack
// before the subplan runs. Uncorrelated results are cached per
// execution context.
type Subquery struct {
	Kind       SubqKind
	Plan       Node
	Probe      Expr // for IN
	Negate     bool
	Correlated bool
}

// Eval implements Expr.
func (e *Subquery) Eval(ctx *EvalCtx, row value.Row) (value.Value, error) {
	if ctx.RunSubquery == nil {
		return value.Null, fmt.Errorf("subquery evaluation requires an executor")
	}
	var rows []value.Row
	if !e.Correlated {
		if ctx.subqCache == nil {
			ctx.subqCache = make(map[Node][]value.Row)
		}
		if cached, ok := ctx.subqCache[e.Plan]; ok {
			rows = cached
		} else {
			r, err := ctx.RunSubquery(e.Plan, ctx)
			if err != nil {
				return value.Null, err
			}
			ctx.subqCache[e.Plan] = r
			rows = r
		}
	} else {
		ctx.PushOuter(row)
		r, err := ctx.RunSubquery(e.Plan, ctx)
		ctx.PopOuter()
		if err != nil {
			return value.Null, err
		}
		rows = r
	}
	switch e.Kind {
	case SubqExists:
		return value.NewBool((len(rows) > 0) != e.Negate), nil
	case SubqScalar:
		if len(rows) == 0 {
			return value.Null, nil
		}
		if len(rows) > 1 {
			return value.Null, fmt.Errorf("scalar subquery returned %d rows", len(rows))
		}
		if len(rows[0]) != 1 {
			return value.Null, fmt.Errorf("scalar subquery must return one column")
		}
		return rows[0][0], nil
	case SubqIn:
		x, err := e.Probe.Eval(ctx, row)
		if err != nil {
			return value.Null, err
		}
		if x.IsNull() {
			return value.Null, nil
		}
		sawNull := false
		for _, r := range rows {
			if len(r) != 1 {
				return value.Null, fmt.Errorf("IN subquery must return one column")
			}
			if r[0].IsNull() {
				sawNull = true
				continue
			}
			if value.Compare(x, r[0]) == 0 {
				return value.NewBool(!e.Negate), nil
			}
		}
		if sawNull {
			return value.Null, nil
		}
		return value.NewBool(e.Negate), nil
	}
	return value.Null, fmt.Errorf("unknown subquery kind %d", e.Kind)
}

func (e *Subquery) String() string {
	switch e.Kind {
	case SubqExists:
		return "EXISTS(<subplan>)"
	case SubqIn:
		return "(" + e.Probe.String() + " IN <subplan>)"
	default:
		return "(<subplan>)"
	}
}
