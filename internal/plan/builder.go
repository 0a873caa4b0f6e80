package plan

import (
	"fmt"
	"strings"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/value"
)

// DualName is the pseudo-relation used for FROM-less SELECTs; the
// executor emits exactly one empty row for it.
const DualName = "$dual"

// Env supplies the builder with schema information: the catalog for
// stored tables, Extra for transient named relations (the ACCESSED
// internal state and NEW/OLD pseudo-rows inside trigger bodies) and
// System for the dotted ones (sys.traces, ...), lower-cased.
type Env struct {
	Catalog *catalog.Catalog
	Extra   map[string]Schema
	System  map[string]Schema
	// Views maps lower-cased view names to their defining queries;
	// references expand inline at plan time.
	Views map[string]*ast.Select
}

// ViewQuery looks up a view's defining query by name.
func (e *Env) ViewQuery(name string) (*ast.Select, bool) {
	if e.Views == nil {
		return nil, false
	}
	v, ok := e.Views[strings.ToLower(name)]
	return v, ok
}

// maxViewDepth bounds view-in-view expansion (and catches definition
// cycles).
const maxViewDepth = 16

// ExtraSchema looks up a transient relation schema by name.
func (e *Env) ExtraSchema(name string) (Schema, bool) {
	if e.Extra == nil {
		return nil, false
	}
	s, ok := e.Extra[strings.ToLower(name)]
	return s, ok
}

// Build translates a parsed SELECT into a logical plan.
func Build(env *Env, sel *ast.Select) (Node, error) {
	b := &builder{env: env}
	return b.buildSelect(sel)
}

// BuildWithOuter translates a SELECT that may reference columns of an
// implicit outer row (the NEW/OLD pseudo-rows of trigger bodies).
// Unqualified or NEW./OLD.-qualified references not found in the
// query's own FROM clause resolve against outer, and the executor must
// push the corresponding row onto the evaluation context's outer stack
// before running the plan. The returned flag reports whether the plan
// actually references the outer row.
func BuildWithOuter(env *Env, sel *ast.Select, outer Schema) (Node, bool, error) {
	b := &builder{env: env}
	osc := &scope{schema: outer}
	b.scopes = append(b.scopes, osc)
	n, err := b.buildSelect(sel)
	if err != nil {
		return nil, false, err
	}
	return n, osc.referenced, nil
}

// BuildScalar compiles a standalone expression against a fixed row
// schema (used for INSERT values, trigger IF conditions and NOTIFY
// messages). Subqueries are supported and resolve correlated
// references against schema.
func BuildScalar(env *Env, schema Schema, e ast.Expr) (Expr, error) {
	b := &builder{env: env}
	sc := &scope{schema: schema}
	b.scopes = append(b.scopes, sc)
	return b.compileExpr(e, sc)
}

type builder struct {
	env       *Env
	viewDepth int
	// scopes is the stack of query scopes; scopes[len-1] is the query
	// currently being built, earlier entries are enclosing queries.
	scopes []*scope
	// lastCorrelated records whether the most recently completed
	// buildSelect call produced a correlated query block.
	lastCorrelated bool
}

type scope struct {
	// schema is the row shape against which expressions at the current
	// clause are evaluated at runtime.
	schema Schema
	// agg carries grouped-query rewriting state; nil outside grouped
	// contexts.
	agg *aggContext
	// correlated is set on a query scope when an expression within it
	// (or a subquery below it) references an enclosing scope, so its
	// plan must be re-evaluated per outer row.
	correlated bool
	// referenced is set on a scope when some inner expression resolved
	// against it; BuildWithOuter uses it to learn whether the plan
	// reads the implicit outer row at all.
	referenced bool
}

type aggContext struct {
	// keyOf maps ast.Expr.String() of each GROUP BY expression to its
	// ordinal in the aggregate output.
	keyOf map[string]int
	// aggOf maps ast.FuncCall.String() of each collected aggregate to
	// its ordinal in the aggregate output.
	aggOf map[string]int
	// out is the aggregate node's output schema.
	out Schema
}

func (b *builder) current() *scope { return b.scopes[len(b.scopes)-1] }

func (b *builder) buildSelect(sel *ast.Select) (Node, error) {
	sc := &scope{}
	b.scopes = append(b.scopes, sc)
	defer func() {
		b.lastCorrelated = sc.correlated
		b.scopes = b.scopes[:len(b.scopes)-1]
	}()

	// FROM clause.
	var root Node
	if len(sel.From) == 0 {
		root = &ValuesScan{Name: DualName, Out: Schema{}}
	} else {
		for _, ref := range sel.From {
			n, err := b.buildTableRef(ref)
			if err != nil {
				return nil, err
			}
			if root == nil {
				root = n
			} else {
				root = &Join{Kind: JoinCross, Left: root, Right: n}
			}
		}
	}
	fromSchema := root.Schema()
	if err := checkDuplicateQualifiers(fromSchema); err != nil {
		return nil, err
	}

	// WHERE clause evaluates against the from-row shape.
	sc.schema = fromSchema
	if sel.Where != nil {
		pred, err := b.compileExpr(sel.Where, sc)
		if err != nil {
			return nil, err
		}
		root = &Filter{Child: root, Pred: pred}
	}

	// Decide whether the query is grouped.
	grouped := len(sel.GroupBy) > 0
	if !grouped {
		for _, item := range sel.Items {
			if item.Expr != nil && ContainsAggregate(item.Expr) {
				grouped = true
				break
			}
		}
		if sel.Having != nil {
			grouped = true
		}
	}

	if grouped {
		n, err := b.buildAggregate(root, sel, sc)
		if err != nil {
			return nil, err
		}
		root = n
	}

	// HAVING evaluates against the aggregate output.
	if sel.Having != nil {
		pred, err := b.compileExpr(sel.Having, sc)
		if err != nil {
			return nil, err
		}
		root = &Filter{Child: root, Pred: pred}
	}

	// SELECT items.
	exprs, out, err := b.buildProjection(sel, sc)
	if err != nil {
		return nil, err
	}

	// ORDER BY may reference output columns (by alias or position) or
	// arbitrary expressions over the pre-projection row; the latter are
	// appended as hidden columns and stripped after the sort.
	var keys []SortKey
	hidden := 0
	for _, oi := range sel.OrderBy {
		if lit, ok := oi.Expr.(*ast.Literal); ok && lit.Val.Kind == value.KindInt {
			pos := int(lit.Val.Int())
			if pos < 1 || pos > len(out) {
				return nil, fmt.Errorf("ORDER BY position %d out of range", pos)
			}
			keys = append(keys, SortKey{Expr: &Col{Idx: pos - 1, Name: out[pos-1].Name}, Desc: oi.Desc})
			continue
		}
		if idx, ok := resolveOutput(oi.Expr, out, sel.Items); ok {
			keys = append(keys, SortKey{Expr: &Col{Idx: idx, Name: out[idx].Name}, Desc: oi.Desc})
			continue
		}
		e, err := b.compileExpr(oi.Expr, sc)
		if err != nil {
			return nil, err
		}
		exprs = append(exprs, e)
		out = append(out, ColInfo{Name: fmt.Sprintf("$sort%d", hidden)})
		keys = append(keys, SortKey{Expr: &Col{Idx: len(out) - 1}, Desc: oi.Desc})
		hidden++
	}

	root = &Project{Child: root, Exprs: exprs, Out: out}

	if sel.Distinct {
		if hidden > 0 {
			return nil, fmt.Errorf("ORDER BY expressions must appear in the select list when DISTINCT is used")
		}
		root = &Distinct{Child: root}
	}

	if len(keys) > 0 {
		root = &Sort{Child: root, Keys: keys}
	}
	if hidden > 0 {
		visible := len(out) - hidden
		exprs := make([]Expr, visible)
		for i := 0; i < visible; i++ {
			exprs[i] = &Col{Idx: i, Name: out[i].Name}
		}
		root = &Project{Child: root, Exprs: exprs, Out: out[:visible]}
	}
	if sel.Limit >= 0 {
		root = &Limit{Child: root, N: sel.Limit}
	}
	return root, nil
}

func checkDuplicateQualifiers(s Schema) error {
	seen := map[string]bool{}
	for _, c := range s {
		if c.Qual == "" {
			continue
		}
		seen[strings.ToLower(c.Qual)] = true
	}
	// Duplicate qualifiers are detected lazily at resolve time (two
	// tables may intentionally expose disjoint column names), so this
	// only guards pathological empty schemas.
	_ = seen
	return nil
}

func (b *builder) buildTableRef(ref ast.TableRef) (Node, error) {
	switch r := ref.(type) {
	case *ast.BaseTable:
		// A dotted name is a system relation, never a catalog table; its
		// default qualifier is the part after the dot.
		dot := strings.IndexByte(r.Name, '.')
		alias := r.Alias
		if alias == "" {
			alias = r.Name[dot+1:]
		}
		if dot >= 0 {
			name := strings.ToLower(r.Name)
			sys, ok := b.env.System[name]
			if !ok {
				return nil, fmt.Errorf("unknown table %q", r.Name)
			}
			return &ValuesScan{Name: name, Out: sys.WithQual(alias)}, nil
		}
		if extra, ok := b.env.ExtraSchema(r.Name); ok {
			return &ValuesScan{Name: strings.ToLower(r.Name), Out: extra.WithQual(alias)}, nil
		}
		if view, ok := b.env.ViewQuery(r.Name); ok {
			if b.viewDepth >= maxViewDepth {
				return nil, fmt.Errorf("view expansion exceeds depth %d (cycle in %q?)", maxViewDepth, r.Name)
			}
			b.viewDepth++
			sub, err := b.buildSelect(view)
			b.viewDepth--
			if err != nil {
				return nil, fmt.Errorf("view %s: %w", r.Name, err)
			}
			inner := sub.Schema()
			exprs := make([]Expr, len(inner))
			for i, c := range inner {
				exprs[i] = &Col{Idx: i, Name: c.Name}
			}
			return &Project{Child: sub, Exprs: exprs, Out: inner.WithQual(alias)}, nil
		}
		meta, ok := b.env.Catalog.Table(r.Name)
		if !ok {
			return nil, fmt.Errorf("unknown table %q", r.Name)
		}
		out := make(Schema, len(meta.Columns))
		for i, c := range meta.Columns {
			out[i] = ColInfo{Qual: alias, Name: c.Name, Kind: c.Type}
		}
		return &Scan{Table: meta.Name, Alias: alias, Out: out, EqIndexed: b.env.Catalog.EqIndexedColumns(meta)}, nil
	case *ast.JoinRef:
		left, err := b.buildTableRef(r.Left)
		if err != nil {
			return nil, err
		}
		right, err := b.buildTableRef(r.Right)
		if err != nil {
			return nil, err
		}
		j := &Join{Left: left, Right: right}
		switch r.Kind {
		case ast.JoinInner:
			j.Kind = JoinInner
		case ast.JoinLeft:
			j.Kind = JoinLeft
		case ast.JoinCross:
			j.Kind = JoinCross
		}
		if r.On != nil {
			// The ON condition is evaluated against the concatenated
			// candidate row at runtime.
			sc := b.current()
			saved := sc.schema
			sc.schema = j.Schema()
			cond, err := b.compileExpr(r.On, sc)
			sc.schema = saved
			if err != nil {
				return nil, err
			}
			j.Cond = cond
		}
		return j, nil
	case *ast.SubqueryRef:
		sub, err := b.buildSelect(r.Sub)
		if err != nil {
			return nil, err
		}
		// Re-qualify the derived table's columns under its alias. The
		// projection is structural only (identity), so reuse the node
		// and override the schema via a pass-through Project.
		inner := sub.Schema()
		exprs := make([]Expr, len(inner))
		for i, c := range inner {
			exprs[i] = &Col{Idx: i, Name: c.Name}
		}
		return &Project{Child: sub, Exprs: exprs, Out: inner.WithQual(r.Alias)}, nil
	default:
		return nil, fmt.Errorf("unsupported table reference %T", ref)
	}
}

// buildAggregate constructs the Aggregate node and installs the
// grouped-context rewriting state into the scope.
func (b *builder) buildAggregate(child Node, sel *ast.Select, sc *scope) (Node, error) {
	agg := &Aggregate{Child: child}
	ctx := &aggContext{keyOf: map[string]int{}, aggOf: map[string]int{}}

	// Group-by expressions are evaluated against the from-row shape.
	for _, g := range sel.GroupBy {
		e, err := b.compileExpr(g, sc)
		if err != nil {
			return nil, err
		}
		agg.GroupBy = append(agg.GroupBy, e)
		info := ColInfo{Name: g.String()}
		if cr, ok := g.(*ast.ColumnRef); ok {
			info = ColInfo{Qual: cr.Table, Name: cr.Name}
			if idx, ok := sc.schema.IndexOf(cr.Table, cr.Name); ok {
				info.Kind = sc.schema[idx].Kind
				if cr.Table == "" {
					info.Qual = sc.schema[idx].Qual
				}
			}
		}
		ctx.keyOf[g.String()] = len(ctx.out)
		ctx.out = append(ctx.out, info)
	}

	// Collect aggregate calls from every clause that can contain them.
	var calls []*ast.FuncCall
	collect := func(e ast.Expr) {
		ast.WalkExprs(e, func(x ast.Expr) {
			if fc, ok := x.(*ast.FuncCall); ok && IsAggregateFunc(fc.Name) {
				calls = append(calls, fc)
			}
		})
	}
	for _, item := range sel.Items {
		if item.Expr != nil {
			collect(item.Expr)
		} else if item.Star {
			return nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
		}
	}
	collect(sel.Having)
	for _, oi := range sel.OrderBy {
		collect(oi.Expr)
	}

	for _, fc := range calls {
		key := fc.String()
		if _, dup := ctx.aggOf[key]; dup {
			continue
		}
		spec, err := b.compileAggSpec(fc, sc)
		if err != nil {
			return nil, err
		}
		agg.Aggs = append(agg.Aggs, spec)
		ctx.aggOf[key] = len(ctx.out)
		kind := value.KindFloat
		if spec.Func == AggCount {
			kind = value.KindInt
		}
		ctx.out = append(ctx.out, ColInfo{Name: key, Kind: kind})
	}
	if len(agg.Aggs) == 0 && len(agg.GroupBy) == 0 {
		return nil, fmt.Errorf("grouped query has neither GROUP BY keys nor aggregates")
	}
	agg.Out = ctx.out

	// Subsequent clauses (HAVING, items, ORDER BY) are evaluated
	// against the aggregate output.
	sc.agg = ctx
	sc.schema = ctx.out
	return agg, nil
}

func (b *builder) compileAggSpec(fc *ast.FuncCall, sc *scope) (AggSpec, error) {
	var f AggFunc
	switch strings.ToUpper(fc.Name) {
	case "COUNT":
		f = AggCount
	case "SUM":
		f = AggSum
	case "AVG":
		f = AggAvg
	case "MIN":
		f = AggMin
	case "MAX":
		f = AggMax
	default:
		return AggSpec{}, fmt.Errorf("unknown aggregate %s", fc.Name)
	}
	spec := AggSpec{Func: f, Distinct: fc.Distinct}
	if fc.Star {
		if f != AggCount {
			return AggSpec{}, fmt.Errorf("%s(*) is not valid", fc.Name)
		}
		return spec, nil
	}
	if len(fc.Args) != 1 {
		return AggSpec{}, fmt.Errorf("%s expects one argument", fc.Name)
	}
	if ContainsAggregate(fc.Args[0]) {
		return AggSpec{}, fmt.Errorf("aggregates cannot be nested")
	}
	// Aggregate arguments are evaluated against the pre-aggregation
	// (from-row) shape; buildAggregate calls this before advancing the
	// scope to the aggregate output.
	arg, err := b.compileExpr(fc.Args[0], sc)
	if err != nil {
		return AggSpec{}, err
	}
	spec.Arg = arg
	return spec, nil
}

func (b *builder) buildProjection(sel *ast.Select, sc *scope) ([]Expr, Schema, error) {
	var exprs []Expr
	var out Schema
	for _, item := range sel.Items {
		if item.Star {
			if sc.agg != nil {
				return nil, nil, fmt.Errorf("SELECT * cannot be combined with GROUP BY or aggregates")
			}
			matched := false
			for i, c := range sc.schema {
				if item.StarTable != "" && !strings.EqualFold(c.Qual, item.StarTable) {
					continue
				}
				matched = true
				exprs = append(exprs, &Col{Idx: i, Name: c.String()})
				out = append(out, c)
			}
			if !matched {
				return nil, nil, fmt.Errorf("unknown table %q in %s.*", item.StarTable, item.StarTable)
			}
			continue
		}
		e, err := b.compileExpr(item.Expr, sc)
		if err != nil {
			return nil, nil, err
		}
		exprs = append(exprs, e)
		info := ColInfo{Name: item.Alias}
		if info.Name == "" {
			if cr, ok := item.Expr.(*ast.ColumnRef); ok {
				info.Qual = cr.Table
				info.Name = cr.Name
				if idx, ok := sc.schema.IndexOf(cr.Table, cr.Name); ok {
					info.Kind = sc.schema[idx].Kind
					if cr.Table == "" {
						info.Qual = sc.schema[idx].Qual
					}
				}
			} else {
				info.Name = item.Expr.String()
			}
		} else if cr, ok := item.Expr.(*ast.ColumnRef); ok {
			if idx, ok := sc.schema.IndexOf(cr.Table, cr.Name); ok {
				info.Kind = sc.schema[idx].Kind
			}
		}
		if info.Kind == value.KindNull {
			info.Kind = inferKind(e)
		}
		out = append(out, info)
	}
	if len(exprs) == 0 {
		return nil, nil, fmt.Errorf("SELECT list is empty")
	}
	return exprs, out, nil
}

// resolveOutput matches an ORDER BY expression against the select list
// by alias or by textual equality.
func resolveOutput(e ast.Expr, out Schema, items []ast.SelectItem) (int, bool) {
	if cr, ok := e.(*ast.ColumnRef); ok && cr.Table == "" {
		for i, item := range items {
			if item.Alias != "" && strings.EqualFold(item.Alias, cr.Name) {
				return i, true
			}
		}
	}
	s := e.String()
	for i, item := range items {
		if item.Expr != nil && item.Expr.String() == s {
			return i, true
		}
	}
	// Finally, match unqualified column names against output columns.
	if cr, ok := e.(*ast.ColumnRef); ok {
		for i, c := range out {
			if strings.EqualFold(c.Name, cr.Name) && (cr.Table == "" || strings.EqualFold(c.Qual, cr.Table)) {
				return i, true
			}
		}
	}
	return 0, false
}

// ContainsAggregate reports whether e calls an aggregate function.
func ContainsAggregate(e ast.Expr) bool {
	found := false
	ast.WalkExprs(e, func(x ast.Expr) {
		if fc, ok := x.(*ast.FuncCall); ok && IsAggregateFunc(fc.Name) {
			found = true
		}
	})
	return found
}
