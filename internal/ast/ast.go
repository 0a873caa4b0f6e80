// Package ast defines the abstract syntax tree for the engine's SQL
// dialect: queries, DML, DDL, and the auditing extensions (CREATE AUDIT
// EXPRESSION, SELECT triggers, NOTIFY actions).
package ast

import (
	"strings"

	"auditdb/internal/value"
)

// Expr is implemented by all expression nodes.
type Expr interface {
	exprNode()
	// String renders the expression as SQL-ish text for error messages
	// and audit-log entries.
	String() string
}

// Stmt is implemented by all statement nodes.
type Stmt interface {
	stmtNode()
}

// ---- Expressions ----

// ColumnRef references a column, optionally qualified by table/alias.
type ColumnRef struct {
	Table string // optional qualifier
	Name  string
}

// Literal is a constant value.
type Literal struct {
	Val value.Value
}

// BinaryOp enumerates binary operators.
type BinaryOp uint8

// Binary operators.
const (
	OpEq BinaryOp = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd
	OpOr
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpLike
	OpConcat
)

// String renders the operator.
func (o BinaryOp) String() string {
	switch o {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpLike:
		return "LIKE"
	case OpConcat:
		return "||"
	default:
		return "?"
	}
}

// IsComparison reports whether o is a comparison operator.
func (o BinaryOp) IsComparison() bool { return o <= OpGe }

// Binary applies a binary operator.
type Binary struct {
	Op   BinaryOp
	L, R Expr
}

// Unary applies NOT or numeric negation.
type Unary struct {
	Op byte // '!' for NOT, '-' for negation
	X  Expr
}

// IsNull tests X IS [NOT] NULL.
type IsNull struct {
	X      Expr
	Negate bool
}

// Between tests X [NOT] BETWEEN Lo AND Hi.
type Between struct {
	X, Lo, Hi Expr
	Negate    bool
}

// InList tests X [NOT] IN (e1, ..., en).
type InList struct {
	X      Expr
	List   []Expr
	Negate bool
}

// InSubquery tests X [NOT] IN (SELECT ...).
type InSubquery struct {
	X      Expr
	Sub    *Select
	Negate bool
}

// Exists tests [NOT] EXISTS (SELECT ...).
type Exists struct {
	Sub    *Select
	Negate bool
}

// ScalarSubquery evaluates (SELECT ...) to a single value.
type ScalarSubquery struct {
	Sub *Select
}

// FuncCall is a function application; aggregates (COUNT/SUM/AVG/MIN/
// MAX) and scalar functions share this node. Star marks COUNT(*).
type FuncCall struct {
	Name     string // uppercased
	Args     []Expr
	Distinct bool // COUNT(DISTINCT x)
	Star     bool // COUNT(*)
}

// Placeholder is a positional parameter ("?") of a prepared
// statement; Idx is zero-based in source order.
type Placeholder struct {
	Idx int
}

// CaseWhen is one WHEN ... THEN ... arm.
type CaseWhen struct {
	Cond   Expr
	Result Expr
}

// Case is a searched or simple CASE expression. Operand is nil for the
// searched form.
type Case struct {
	Operand Expr
	Whens   []CaseWhen
	Else    Expr
}

func (*ColumnRef) exprNode()      {}
func (*Literal) exprNode()        {}
func (*Binary) exprNode()         {}
func (*Unary) exprNode()          {}
func (*IsNull) exprNode()         {}
func (*Between) exprNode()        {}
func (*InList) exprNode()         {}
func (*InSubquery) exprNode()     {}
func (*Exists) exprNode()         {}
func (*ScalarSubquery) exprNode() {}
func (*FuncCall) exprNode()       {}
func (*Case) exprNode()           {}
func (*Placeholder) exprNode()    {}

func (e *ColumnRef) String() string {
	if e.Table != "" {
		return Ident(e.Table) + "." + Ident(e.Name)
	}
	return Ident(e.Name)
}

func (e *Literal) String() string { return e.Val.SQL() }

func (e *Placeholder) String() string { return "?" }

func (e *Binary) String() string {
	return "(" + e.L.String() + " " + e.Op.String() + " " + e.R.String() + ")"
}

func (e *Unary) String() string {
	if e.Op == '!' {
		return "(NOT " + e.X.String() + ")"
	}
	return "(-" + e.X.String() + ")"
}

func (e *IsNull) String() string {
	if e.Negate {
		return "(" + e.X.String() + " IS NOT NULL)"
	}
	return "(" + e.X.String() + " IS NULL)"
}

func (e *Between) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "BETWEEN " + e.Lo.String() + " AND " + e.Hi.String() + ")"
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

func (e *InSubquery) String() string {
	not := ""
	if e.Negate {
		not = "NOT "
	}
	return "(" + e.X.String() + " " + not + "IN (" + RenderSelect(e.Sub) + "))"
}

func (e *Exists) String() string {
	if e.Negate {
		return "(NOT EXISTS (" + RenderSelect(e.Sub) + "))"
	}
	return "(EXISTS (" + RenderSelect(e.Sub) + "))"
}

func (e *ScalarSubquery) String() string { return "(" + RenderSelect(e.Sub) + ")" }

func (e *FuncCall) String() string {
	if e.Star {
		return e.Name + "(*)"
	}
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	d := ""
	if e.Distinct {
		d = "DISTINCT "
	}
	return e.Name + "(" + d + strings.Join(parts, ", ") + ")"
}

func (e *Case) String() string {
	var b strings.Builder
	b.WriteString("CASE")
	if e.Operand != nil {
		b.WriteString(" " + e.Operand.String())
	}
	for _, w := range e.Whens {
		b.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Result.String())
	}
	if e.Else != nil {
		b.WriteString(" ELSE " + e.Else.String())
	}
	b.WriteString(" END")
	return b.String()
}

// ---- SELECT ----

// SelectItem is one output column of a SELECT. Star selects all columns
// (optionally of one table via StarTable).
type SelectItem struct {
	Expr      Expr
	Alias     string
	Star      bool
	StarTable string
}

// JoinKind enumerates join types.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// String names the join kind.
func (k JoinKind) String() string {
	switch k {
	case JoinInner:
		return "INNER JOIN"
	case JoinLeft:
		return "LEFT JOIN"
	case JoinCross:
		return "CROSS JOIN"
	default:
		return "JOIN"
	}
}

// TableRef is a FROM-clause item: a base table, a join, or a derived
// table.
type TableRef interface {
	tableRefNode()
}

// BaseTable names a stored table (or the ACCESSED pseudo-relation,
// NEW/OLD inside trigger bodies, or a dotted system relation such as
// sys.traces, whose Name keeps the dot).
type BaseTable struct {
	Name  string
	Alias string
}

// JoinRef combines two table refs.
type JoinRef struct {
	Kind        JoinKind
	Left, Right TableRef
	On          Expr // nil for CROSS
}

// SubqueryRef is a derived table.
type SubqueryRef struct {
	Sub   *Select
	Alias string
}

func (*BaseTable) tableRefNode()   {}
func (*JoinRef) tableRefNode()     {}
func (*SubqueryRef) tableRefNode() {}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// Select is a query block.
type Select struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // comma-separated list; nil for SELECT without FROM
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    int64 // -1 when absent
}

// ---- DML ----

// Insert adds rows. Exactly one of Rows or Query is set.
type Insert struct {
	Table   string
	Columns []string // optional explicit column list
	Rows    [][]Expr
	Query   *Select
}

// Assignment is one SET clause of an UPDATE.
type Assignment struct {
	Column string
	Value  Expr
}

// Update modifies rows.
type Update struct {
	Table string
	Alias string
	Set   []Assignment
	Where Expr
}

// Delete removes rows.
type Delete struct {
	Table string
	Alias string
	Where Expr
}

// ---- DDL ----

// ColumnDef is one column of CREATE TABLE.
type ColumnDef struct {
	Name       string
	Type       value.Kind
	PrimaryKey bool
}

// CreateTable declares a table.
type CreateTable struct {
	Name       string
	Columns    []ColumnDef
	PrimaryKey []string // table-level PRIMARY KEY (...) constraint
}

// CreateIndex declares a secondary index.
type CreateIndex struct {
	Name    string
	Table   string
	Columns []string
}

// CreateView declares a named query; references to the view expand to
// its defining query at plan time.
type CreateView struct {
	Name  string
	Query *Select
}

// DropView removes a view.
type DropView struct{ Name string }

// DropIndex removes a secondary index.
type DropIndex struct{ Name string }

// DropTable removes a table.
type DropTable struct{ Name string }

// DropTrigger removes a trigger.
type DropTrigger struct{ Name string }

// DropAuditExpression removes an audit expression.
type DropAuditExpression struct{ Name string }

// ---- Auditing extensions ----

// CreateAuditExpression declares sensitive data (§II-A of the paper):
//
//	CREATE AUDIT EXPRESSION name AS
//	SELECT ... FROM ... WHERE ...
//	FOR SENSITIVE TABLE t PARTITION BY key
type CreateAuditExpression struct {
	Name           string
	Query          *Select
	SensitiveTable string
	PartitionBy    string
	// Priority is the optional PRIORITY n clause: the triage risk
	// model's operator-declared weight. 0 when omitted.
	Priority int
}

// TriggerEvent is the firing event of a CREATE TRIGGER.
type TriggerEvent uint8

// Trigger events.
const (
	EventInsert TriggerEvent = iota
	EventUpdate
	EventDelete
	EventAccess // ON ACCESS TO <audit expression>
)

// CreateTrigger declares either a DML trigger (ON table AFTER evt) or a
// SELECT trigger (ON ACCESS TO auditexpr). Body holds the action
// statements; ActionSQL preserves the original text for the catalog.
type CreateTrigger struct {
	Name      string
	Event     TriggerEvent
	Target    string // table name or audit expression name
	Body      []Stmt
	ActionSQL string
}

// If guards a statement inside a trigger body.
type If struct {
	Cond Expr
	Then []Stmt
}

// Notify sends an out-of-band notification (the paper's SEND EMAIL).
type Notify struct {
	Message Expr
}

// VerifyAuditLog re-reads the on-disk audit trail and reports whether
// the hash chain is intact (VERIFY AUDIT LOG).
type VerifyAuditLog struct{}

// TxBegin starts an explicit transaction (BEGIN).
type TxBegin struct{}

// TxCommit commits the open transaction (COMMIT).
type TxCommit struct{}

// TxRollback rolls the open transaction back (ROLLBACK).
type TxRollback struct{}

// Explain renders a query's execution plan instead of running it. The
// plan shown is the one that would execute, including audit operators
// when auditing is active. With Analyze set (EXPLAIN ANALYZE) the
// query is executed for real and each operator reports observed rows,
// batches, wall time, and audit-probe activity — but, like plain
// EXPLAIN, no SELECT triggers fire and no ACCESSED state is persisted.
type Explain struct {
	Query   *Select
	Analyze bool
}

func (*Select) stmtNode()                {}
func (*Insert) stmtNode()                {}
func (*Update) stmtNode()                {}
func (*Delete) stmtNode()                {}
func (*CreateTable) stmtNode()           {}
func (*CreateIndex) stmtNode()           {}
func (*DropTable) stmtNode()             {}
func (*CreateView) stmtNode()            {}
func (*DropView) stmtNode()              {}
func (*DropIndex) stmtNode()             {}
func (*DropTrigger) stmtNode()           {}
func (*DropAuditExpression) stmtNode()   {}
func (*CreateAuditExpression) stmtNode() {}
func (*CreateTrigger) stmtNode()         {}
func (*If) stmtNode()                    {}
func (*Notify) stmtNode()                {}
func (*Explain) stmtNode()               {}
func (*TxBegin) stmtNode()               {}
func (*TxCommit) stmtNode()              {}
func (*TxRollback) stmtNode()            {}
func (*VerifyAuditLog) stmtNode()        {}

// WalkExprs calls fn for every sub-expression of e (including e),
// without descending into subquery Select nodes.
func WalkExprs(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *Binary:
		WalkExprs(x.L, fn)
		WalkExprs(x.R, fn)
	case *Unary:
		WalkExprs(x.X, fn)
	case *IsNull:
		WalkExprs(x.X, fn)
	case *Between:
		WalkExprs(x.X, fn)
		WalkExprs(x.Lo, fn)
		WalkExprs(x.Hi, fn)
	case *InList:
		WalkExprs(x.X, fn)
		for _, item := range x.List {
			WalkExprs(item, fn)
		}
	case *InSubquery:
		WalkExprs(x.X, fn)
	case *FuncCall:
		for _, a := range x.Args {
			WalkExprs(a, fn)
		}
	case *Case:
		WalkExprs(x.Operand, fn)
		for _, w := range x.Whens {
			WalkExprs(w.Cond, fn)
			WalkExprs(w.Result, fn)
		}
		WalkExprs(x.Else, fn)
	}
}
