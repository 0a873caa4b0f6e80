package plan

import (
	"fmt"
	"strings"

	"auditdb/internal/value"
)

// Node is a logical plan operator. Plans are trees; the executor in
// internal/exec interprets them directly and the placement algorithms
// in internal/core rewrite them via Children/SetChild.
type Node interface {
	// Schema is the node's output column list.
	Schema() Schema
	// Children returns the input nodes (empty for leaves).
	Children() []Node
	// SetChild replaces input i.
	SetChild(i int, n Node)
	// Label names the operator for plan display.
	Label() string
}

// ---- Leaves ----

// Scan reads a stored table, applying the pushed-down predicate (if
// any) at the leaf, which mirrors how real optimizers push single-table
// filters into the scan (paper §III-C).
type Scan struct {
	Table  string // catalog table name
	Alias  string // exposed qualifier
	Pushed Expr   // optional leaf predicate
	Out    Schema
	// Parallel marks the scan as morsel-driven: workers of the
	// enclosing parallel operator (Gather, parallel Aggregate) claim
	// bounded heap ranges from a shared cursor instead of one iterator
	// streaming the heap. Set by opt.Parallelize.
	Parallel bool
	// Prune holds chunk-refutation terms derived from Pushed by the
	// optimizer: a chunk whose zone map refutes any term cannot yield
	// a passing row and is skipped without copying. Declarative (the
	// constant side may be a Param or Outer ref) so cached plans stay
	// valid; the executor compiles terms at Open.
	Prune []PruneTerm
	// EqIndexed lists the columns on which the table can serve an
	// equality from an index (the sole primary-key column and every
	// single-column secondary index), as of plan time. The planner
	// reads it through IndexPoint; a stale list after index DDL only
	// costs a parallelism decision, never a result.
	EqIndexed []int
}

// Schema implements Node.
func (s *Scan) Schema() Schema { return s.Out }

// IndexPoint reports whether the scan kernel will try to serve the
// scan from an index: the conjunct EqProbe picks out of Pushed names
// an EqIndexed column. Such a scan reads the matching rows only, so
// the table's size says nothing about its cost.
func (s *Scan) IndexPoint() bool {
	col, _, ok := EqProbe(s.Pushed)
	if !ok {
		return false
	}
	for _, c := range s.EqIndexed {
		if c == col.Idx {
			return true
		}
	}
	return false
}

// EqProbe finds the first conjunct of pred shaped `col = k` or
// `k = col` with k independent of the row (a literal, a prepared
// parameter or an outer reference) — the one conjunct the scan kernel
// tries to serve from an index.
func EqProbe(pred Expr) (col *Col, k Expr, ok bool) {
	switch e := pred.(type) {
	case *And:
		if col, k, ok = EqProbe(e.L); ok {
			return col, k, true
		}
		return EqProbe(e.R)
	case *Cmp:
		if e.Op != CmpEq {
			return nil, nil, false
		}
		if c, cok := e.L.(*Col); cok && rowIndependent(e.R) {
			return c, e.R, true
		}
		if c, cok := e.R.(*Col); cok && rowIndependent(e.L) {
			return c, e.L, true
		}
	}
	return nil, nil, false
}

func rowIndependent(e Expr) bool {
	switch e.(type) {
	case *Const, *Param, *Outer:
		return true
	}
	return false
}

// Children implements Node.
func (s *Scan) Children() []Node { return nil }

// SetChild implements Node.
func (s *Scan) SetChild(int, Node) { panic("plan: Scan has no children") }

// Label implements Node.
func (s *Scan) Label() string {
	l := "Scan(" + s.Table
	if s.Alias != "" && !strings.EqualFold(s.Alias, s.Table) {
		l += " AS " + s.Alias
	}
	if s.Pushed != nil {
		l += " WHERE " + s.Pushed.String()
	}
	l += ")"
	if s.Parallel {
		l += " [parallel]"
	}
	return l
}

// ValuesScan reads a named transient relation supplied by the
// execution context: the ACCESSED internal state inside SELECT-trigger
// actions, the NEW/OLD pseudo-rows inside DML trigger actions, and the
// system relations (sys.traces, ...).
type ValuesScan struct {
	Name string
	Out  Schema
}

// Schema implements Node.
func (s *ValuesScan) Schema() Schema { return s.Out }

// Children implements Node.
func (s *ValuesScan) Children() []Node { return nil }

// SetChild implements Node.
func (s *ValuesScan) SetChild(int, Node) { panic("plan: ValuesScan has no children") }

// Label implements Node.
func (s *ValuesScan) Label() string { return "Values(" + s.Name + ")" }

// ---- Unary operators ----

// Filter keeps rows whose predicate evaluates to TRUE.
type Filter struct {
	Child Node
	Pred  Expr
}

// Schema implements Node.
func (f *Filter) Schema() Schema { return f.Child.Schema() }

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// SetChild implements Node.
func (f *Filter) SetChild(i int, n Node) { f.Child = n }

// Label implements Node.
func (f *Filter) Label() string { return "Filter(" + f.Pred.String() + ")" }

// Project computes the output expressions.
type Project struct {
	Child Node
	Exprs []Expr
	Out   Schema
}

// Schema implements Node.
func (p *Project) Schema() Schema { return p.Out }

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// SetChild implements Node.
func (p *Project) SetChild(i int, n Node) { p.Child = n }

// Label implements Node.
func (p *Project) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// JoinKind enumerates join types in plans.
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
		return "InnerJoin"
	case JoinLeft:
		return "LeftJoin"
	default:
		return "CrossJoin"
	}
}

// Join combines two inputs. When LeftKeys/RightKeys are non-empty the
// executor uses a hash join on those equi-key expressions, applying
// Residual to each candidate pair; otherwise it falls back to a
// nested-loops join on Cond.
type Join struct {
	Kind        JoinKind
	Left, Right Node
	Cond        Expr // full join condition (nil for cross)
	// Equi-key decomposition, filled by the optimizer. LeftKeys[i] is
	// evaluated against left rows and must equal RightKeys[i] on right
	// rows.
	LeftKeys, RightKeys []Expr
	Residual            Expr // non-equi remainder of Cond
	// Parallel marks a hash join for partitioned parallel execution:
	// the build side is read once, partitioned and built by workers,
	// then probed by the morsel workers of the enclosing exchange. Only
	// ever set on equi-joins (LeftKeys non-empty). Set by
	// opt.Parallelize.
	Parallel bool
}

// Schema implements Node.
func (j *Join) Schema() Schema { return j.Left.Schema().Concat(j.Right.Schema()) }

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.Left, j.Right} }

// SetChild implements Node.
func (j *Join) SetChild(i int, n Node) {
	if i == 0 {
		j.Left = n
	} else {
		j.Right = n
	}
}

// Label implements Node.
func (j *Join) Label() string {
	l := j.Kind.String()
	if j.Cond != nil {
		l += "(" + j.Cond.String() + ")"
	}
	if j.Parallel {
		l += " [parallel]"
	}
	return l
}

// AggFunc enumerates aggregate functions.
type AggFunc uint8

// Aggregate functions.
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (f AggFunc) String() string {
	return [...]string{"COUNT", "SUM", "AVG", "MIN", "MAX"}[f]
}

// AggSpec is one aggregate computation. Arg nil means COUNT(*).
type AggSpec struct {
	Func     AggFunc
	Arg      Expr
	Distinct bool
}

// Label renders the aggregate for display.
func (a AggSpec) Label() string {
	arg := "*"
	if a.Arg != nil {
		arg = a.Arg.String()
	}
	d := ""
	if a.Distinct {
		d = "DISTINCT "
	}
	return a.Func.String() + "(" + d + arg + ")"
}

// Aggregate groups its input by the GroupBy expressions and computes
// the aggregates. Output columns are the group-by values followed by
// the aggregate results. With no GroupBy it produces exactly one row.
type Aggregate struct {
	Child   Node
	GroupBy []Expr
	Aggs    []AggSpec
	Out     Schema
	// Parallel marks the aggregate for two-phase execution: workers
	// fold partial states over morsels of the child, and the partials
	// are merged serially at close. Never set when any AggSpec is
	// DISTINCT (per-worker seen-sets are not union-mergeable into
	// correct sums/counts). Set by opt.Parallelize.
	Parallel bool
}

// Schema implements Node.
func (a *Aggregate) Schema() Schema { return a.Out }

// Children implements Node.
func (a *Aggregate) Children() []Node { return []Node{a.Child} }

// SetChild implements Node.
func (a *Aggregate) SetChild(i int, n Node) { a.Child = n }

// Label implements Node.
func (a *Aggregate) Label() string {
	var parts []string
	for _, g := range a.GroupBy {
		parts = append(parts, g.String())
	}
	for _, ag := range a.Aggs {
		parts = append(parts, ag.Label())
	}
	l := "Aggregate(" + strings.Join(parts, ", ") + ")"
	if a.Parallel {
		l += " [parallel]"
	}
	return l
}

// SortKey is one ORDER BY key.
type SortKey struct {
	Expr Expr
	Desc bool
}

// Sort orders its input.
type Sort struct {
	Child Node
	Keys  []SortKey
}

// Schema implements Node.
func (s *Sort) Schema() Schema { return s.Child.Schema() }

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// SetChild implements Node.
func (s *Sort) SetChild(i int, n Node) { s.Child = n }

// Label implements Node.
func (s *Sort) Label() string {
	parts := make([]string, len(s.Keys))
	for i, k := range s.Keys {
		parts[i] = k.Expr.String()
		if k.Desc {
			parts[i] += " DESC"
		}
	}
	return "Sort(" + strings.Join(parts, ", ") + ")"
}

// Limit passes through the first N rows. Combined with Sort it is the
// paper's top-k operator — the canonical non-commutative operator for
// audit placement (Example 3.2).
type Limit struct {
	Child Node
	N     int64
}

// Schema implements Node.
func (l *Limit) Schema() Schema { return l.Child.Schema() }

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// SetChild implements Node.
func (l *Limit) SetChild(i int, n Node) { l.Child = n }

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Distinct removes duplicate rows (set semantics), another
// non-commutative barrier for audit operators.
type Distinct struct {
	Child Node
}

// Schema implements Node.
func (d *Distinct) Schema() Schema { return d.Child.Schema() }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Child} }

// SetChild implements Node.
func (d *Distinct) SetChild(i int, n Node) { d.Child = n }

// Label implements Node.
func (d *Distinct) Label() string { return "Distinct" }

// Gather is the exchange operator between a parallel subtree and its
// serial consumers: a worker pool executes Child's pipeline fragment
// over morsels of its parallel leaf and funnels the produced rows into
// a single stream. Row order across morsels is unspecified — only
// operators above an explicit Sort may rely on ordering. Inserted by
// opt.Parallelize; never produced by the SQL front end.
type Gather struct {
	Child Node
	// Workers is the pool size the planner chose (>= 2).
	Workers int
}

// Schema implements Node.
func (g *Gather) Schema() Schema { return g.Child.Schema() }

// Children implements Node.
func (g *Gather) Children() []Node { return []Node{g.Child} }

// SetChild implements Node.
func (g *Gather) SetChild(i int, n Node) { g.Child = n }

// Label implements Node.
func (g *Gather) Label() string { return fmt.Sprintf("Gather(workers=%d)", g.Workers) }

// AuditSink is what an audit operator feeds: the partition-by values
// that flow past it. internal/core's Probe is the one implementation,
// a sensitive-ID hash probe that records matches into the query's
// ACCESSED state (paper §IV-A.2). Fork makes every sink usable inside
// a parallel fragment: because the probe is pure and commutative
// (paper Claim 3.6), the union of per-worker observations equals the
// serial result — no false negatives, no spurious entries.
type AuditSink interface {
	AuditObserver
	// Fork returns a worker-local sink for one parallel fragment.
	Fork() WorkerAuditSink
}

// WorkerAuditSink is one worker's private view of a forked audit
// sink. The worker observes without synchronization; Merge folds its
// observations into the parent exactly once, after the worker has
// stopped producing.
type WorkerAuditSink interface {
	AuditObserver
	Merge()
}

// AuditObserver is the probing half an audit sink and its forks share.
type AuditObserver interface {
	// ObserveBatch probes a batch of partition-by values and returns
	// how many hit. The slice is only valid for the duration of the
	// call.
	ObserveBatch(vs []value.Value) (hits int)
}

// PruneKind discriminates chunk-refutation terms.
type PruneKind uint8

// Prune term kinds: a column/constant comparison, or a null check.
const (
	PruneCmp PruneKind = iota
	PruneIsNull
	PruneNotNull
)

// PruneTerm is one conjunct of a scan's pruning predicate, in the
// restricted shape zone maps can refute: column <op> constant, column
// IS NULL, or column IS NOT NULL. Val stays an expression (Const,
// Param, or Outer) so terms survive plan caching; the executor
// resolves it to an int64 at Open and drops terms it cannot resolve to
// an I-backed kind.
type PruneTerm struct {
	Kind PruneKind
	Col  int
	Op   CmpOp
	Val  Expr
}

// ChunkSketch is the read-only statistics view the storage layer hands
// to pruning decisions: zone-map range, null counts, and sensitive-ID
// membership for one chunk. All answers are conservative — "may
// contain" can be wrong in the containing direction only.
type ChunkSketch interface {
	Range(col int) (lo, hi int64, ok bool)
	NullCounts(col int) (nulls, nonNull int64)
	MayContain(col int, v int64) bool
}

// SketchPruner refutes chunks against an audit expression's
// sensitive-ID set: RefuteChunk returns true only when no value in the
// chunk's watched column can be in the set. Implemented by
// core.AuditExpression.
type SketchPruner interface {
	RefuteChunk(col int, ck ChunkSketch) bool
}

// Audit is the paper's audit operator: a no-op "data viewer" derived
// from the filter operator. It forwards every input row unchanged and
// feeds the partition-by column (ordinal IDIdx of its input) to the
// sink. Selectivity is definitionally 1.0.
type Audit struct {
	Child Node
	// Name is the audit expression this operator serves.
	Name string
	// IDIdx is the ordinal of the partition-by column in Child's schema.
	IDIdx int
	// Sink probes the sensitive-ID set and records hits into the
	// ACCESSED state its owner points it at for the run: a statement's,
	// or under EXPLAIN ANALYZE a throwaway one. Observed or not, the
	// run feeds the same sink through the same (fused or unfused)
	// operator.
	Sink AuditSink
	// Pruner, when set, can refute whole chunks against the audit
	// expression's sensitive-ID sketch. It is the stable compiled
	// expression object (not a snapshot), so cached plans see DML to
	// the watch set immediately; plan-cache invalidation on expression
	// DDL covers creation/drop.
	Pruner SketchPruner
}

// Schema implements Node.
func (a *Audit) Schema() Schema { return a.Child.Schema() }

// Children implements Node.
func (a *Audit) Children() []Node { return []Node{a.Child} }

// SetChild implements Node.
func (a *Audit) SetChild(i int, n Node) { a.Child = n }

// Label implements Node.
func (a *Audit) Label() string {
	col := "?"
	if sch := a.Child.Schema(); a.IDIdx >= 0 && a.IDIdx < len(sch) {
		col = sch[a.IDIdx].String()
	}
	return fmt.Sprintf("Audit(%s on %s)", a.Name, col)
}

// Explain renders the plan tree as an indented multi-line string, used
// in tests and the shell's EXPLAIN-style output.
func Explain(n Node) string {
	var b strings.Builder
	explain(&b, n, 0)
	return b.String()
}

func explain(b *strings.Builder, n Node, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label())
	b.WriteByte('\n')
	for _, c := range n.Children() {
		explain(b, c, depth+1)
	}
}

// Walk visits every node in the plan tree in pre-order, including
// subquery plans referenced from expressions when deep is true.
func Walk(n Node, fn func(Node)) {
	fn(n)
	for _, c := range n.Children() {
		Walk(c, fn)
	}
}
