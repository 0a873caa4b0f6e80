// Package core implements the paper's contribution: audit expressions
// compiled to materialized sensitive-ID sets (§IV-A.1), the audit
// operator's probe sink and per-query ACCESSED state (§II/IV-A.2), and
// the audit-operator placement algorithms — leaf-node, highest-node,
// and the highest-commutative-node heuristic of Algorithm 1 (§III-C).
package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/exec"
	"auditdb/internal/opt"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// idSet is an immutable snapshot of sensitive IDs keyed by their
// canonical encoding. Maintenance replaces the whole snapshot, so the
// audit operator probes lock-free against a consistent set. When every
// ID is integral (the overwhelmingly common case — partition keys are
// primary keys), ints carries an allocation-free probe index for the
// executor's hot path.
type idSet struct {
	byKey map[string]value.Value
	ints  map[int64]struct{} // nil when some ID is non-integral

	// sorted is the ascending view of ints, built lazily on the first
	// chunk-pruning refutation against this snapshot. Maintenance
	// stores a fresh idSet (and clone builds a fresh struct), so once
	// a snapshot is published its ints never change and the Once is
	// race-free.
	sortedOnce sync.Once
	sorted     []int64
}

// sortedInts returns the set's IDs in ascending order (nil when the
// set holds non-integral IDs).
func (s *idSet) sortedInts() []int64 {
	s.sortedOnce.Do(func() {
		if s.ints == nil {
			return
		}
		s.sorted = make([]int64, 0, len(s.ints))
		for v := range s.ints {
			s.sorted = append(s.sorted, v)
		}
		sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	})
	return s.sorted
}

func newIDSet(capacity int) *idSet {
	return &idSet{
		byKey: make(map[string]value.Value, capacity),
		ints:  make(map[int64]struct{}, capacity),
	}
}

// add inserts an ID, dropping the integer index if v is not integral.
func (s *idSet) add(v value.Value) {
	s.byKey[value.KeyOf(v)] = v
	if s.ints != nil {
		if v.Kind == value.KindInt {
			s.ints[v.I] = struct{}{}
		} else {
			s.ints = nil
		}
	}
}

func (s *idSet) remove(v value.Value) {
	delete(s.byKey, value.KeyOf(v))
	if s.ints != nil && v.Kind == value.KindInt {
		delete(s.ints, v.I)
	}
}

func (s *idSet) contains(v value.Value) bool {
	if s.ints != nil {
		if v.Kind == value.KindInt {
			_, ok := s.ints[v.I]
			return ok
		}
		if v.Kind != value.KindFloat && v.Kind != value.KindBool && v.Kind != value.KindDate {
			return false // strings can never match an all-int set
		}
	}
	_, ok := s.byKey[value.KeyOf(v)]
	return ok
}

func (s *idSet) clone() *idSet {
	out := &idSet{byKey: make(map[string]value.Value, len(s.byKey))}
	for k, v := range s.byKey {
		out.byKey[k] = v
	}
	if s.ints != nil {
		out.ints = make(map[int64]struct{}, len(s.ints))
		for k := range s.ints {
			out.ints[k] = struct{}{}
		}
	}
	return out
}

// AuditExpression is a declared audit expression compiled to its
// materialized set of sensitiveIDs (the partition-by keys of the rows
// matched by the defining query). The set is maintained under DML via
// Registry.Apply.
type AuditExpression struct {
	Meta *catalog.AuditExprMeta

	// defQuery is the defining SELECT rewritten to project only the
	// partition-by key (the paper compiles audit expressions to IDs so
	// the operator needs no extra attributes, §IV-A.1).
	defQuery *ast.Select
	// keyOrdinal is the partition-by column's ordinal in the sensitive
	// table.
	keyOrdinal int
	// singlePred, when non-nil, is the defining predicate compiled
	// against the sensitive table's row shape; set only for
	// single-table definitions, enabling per-row incremental
	// maintenance. Multi-table definitions refresh wholesale.
	singlePred plan.Expr
	// refTables are the lower-cased names of all tables the definition
	// reads; DML against any of them invalidates the set.
	refTables map[string]bool

	ids atomic.Pointer[idSet]
}

// Name returns the expression's declared name.
func (e *AuditExpression) Name() string { return e.Meta.Name }

// KeyOrdinal returns the partition-by column ordinal in the sensitive
// table.
func (e *AuditExpression) KeyOrdinal() int { return e.keyOrdinal }

// Cardinality returns the current number of sensitive IDs.
func (e *AuditExpression) Cardinality() int { return len(e.ids.Load().byKey) }

// Contains reports whether v is a sensitive ID. It is safe to call
// concurrently with maintenance.
func (e *AuditExpression) Contains(v value.Value) bool {
	if v.IsNull() {
		return false
	}
	return e.ids.Load().contains(v)
}

// refuteProbeCap bounds how many candidate IDs RefuteChunk will test
// individually against a chunk's Bloom filter. Beyond this the range
// overlap alone decides (conservatively: scan the chunk).
const refuteProbeCap = 64

// RefuteChunk implements plan.SketchPruner: it returns true only when
// no value the chunk may hold in column col can be in the sensitive-ID
// set. The proof obligation is one-sided — a false return merely
// scans the chunk; a true return must be certain, so every branch that
// cannot prove absence answers false. Reads an atomic ID-set snapshot;
// safe under concurrent maintenance.
func (e *AuditExpression) RefuteChunk(col int, ck plan.ChunkSketch) bool {
	set := e.ids.Load()
	if set == nil {
		return false
	}
	if len(set.byKey) == 0 {
		return true // empty watch set: no row anywhere is sensitive
	}
	sorted := set.sortedInts()
	if sorted == nil {
		return false // non-integral IDs: no sketch support
	}
	if _, nonNull := ck.NullCounts(col); nonNull == 0 {
		return true // all-null column values never match (NULL ∉ set)
	}
	lo, hi, ok := ck.Range(col)
	if !ok {
		return false
	}
	// Candidate IDs are those inside the chunk's zone-map envelope.
	from := sort.Search(len(sorted), func(i int) bool { return sorted[i] >= lo })
	to := sort.Search(len(sorted), func(i int) bool { return sorted[i] > hi })
	if from == to {
		return true // no sensitive ID falls in [lo, hi]
	}
	if to-from > refuteProbeCap {
		return false
	}
	for i := from; i < to; i++ {
		if ck.MayContain(col, sorted[i]) {
			return false
		}
	}
	return true
}

// IDs returns a snapshot of the sensitive IDs (unordered).
func (e *AuditExpression) IDs() []value.Value {
	set := e.ids.Load().byKey
	out := make([]value.Value, 0, len(set))
	for _, v := range set {
		out = append(out, v)
	}
	return out
}

// Registry owns the compiled audit expressions of one database and
// keeps their materialized ID sets consistent with the data.
type Registry struct {
	cat   *catalog.Catalog
	store *storage.Store

	mu    sync.RWMutex
	exprs []*AuditExpression // in creation order
}

// NewRegistry creates an empty registry bound to a catalog and store.
func NewRegistry(cat *catalog.Catalog, store *storage.Store) *Registry {
	return &Registry{cat: cat, store: store}
}

// find returns the position of the named expression, -1 if none.
func (r *Registry) find(name string) int {
	k := strings.ToLower(name)
	return slices.IndexFunc(r.exprs, func(e *AuditExpression) bool { return strings.ToLower(e.Meta.Name) == k })
}

// Compile registers an audit expression declaration: it validates the
// sensitive table and partition-by key, rewrites the defining query to
// project only the key, materializes the initial ID set, and returns
// the compiled expression.
func (r *Registry) Compile(meta *catalog.AuditExprMeta, query *ast.Select) (*AuditExpression, error) {
	tbl, ok := r.cat.Table(meta.SensitiveTable)
	if !ok {
		return nil, fmt.Errorf("audit expression %s: sensitive table %q does not exist", meta.Name, meta.SensitiveTable)
	}
	keyOrd := tbl.ColumnIndex(meta.PartitionBy)
	if keyOrd < 0 {
		return nil, fmt.Errorf("audit expression %s: partition-by column %q not in table %s", meta.Name, meta.PartitionBy, tbl.Name)
	}
	if err := validateDefinition(query); err != nil {
		return nil, fmt.Errorf("audit expression %s: %w", meta.Name, err)
	}

	// Rewrite the defining query to SELECT DISTINCT <key> (the paper
	// stores audit expressions as materialized views of IDs).
	def := &ast.Select{
		Distinct: true,
		Items: []ast.SelectItem{{
			Expr: &ast.ColumnRef{Table: sensitiveQualifier(query, meta.SensitiveTable), Name: meta.PartitionBy},
		}},
		From:  query.From,
		Where: query.Where,
		Limit: -1,
	}

	e := &AuditExpression{
		Meta:       meta,
		defQuery:   def,
		keyOrdinal: keyOrd,
		refTables:  referencedTables(query),
	}
	if !e.refTables[strings.ToLower(meta.SensitiveTable)] {
		return nil, fmt.Errorf("audit expression %s: defining query does not read sensitive table %s", meta.Name, meta.SensitiveTable)
	}

	// Single-table fast path for incremental maintenance.
	if len(e.refTables) == 1 && len(query.From) == 1 && query.Where != nil && !hasSubquery(query.Where) {
		if bt, ok := query.From[0].(*ast.BaseTable); ok {
			schema := tableSchema(tbl, qualifierOf(bt))
			pred, err := plan.BuildScalar(&plan.Env{Catalog: r.cat}, schema, query.Where)
			if err == nil {
				e.singlePred = pred
			}
		}
	}

	if err := e.refresh(r.cat, r.store); err != nil {
		return nil, err
	}

	// Register a sensitive-ID sketch on the watched column so scan
	// kernels can elide audit probes for chunks that provably contain
	// no sensitive row. Idempotent; covers recovery recompiles too.
	if st, ok := r.store.Table(meta.SensitiveTable); ok {
		st.EnsureSketch(keyOrd)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if r.find(meta.Name) >= 0 {
		return nil, fmt.Errorf("audit expression %q already compiled", meta.Name)
	}
	r.exprs = append(r.exprs, e)
	return e, nil
}

// Drop removes a compiled expression.
func (r *Registry) Drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i := r.find(name); i >= 0 {
		r.exprs = slices.Delete(r.exprs, i, i+1)
	}
}

// Get returns the compiled expression by name.
func (r *Registry) Get(name string) (*AuditExpression, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if i := r.find(name); i >= 0 {
		return r.exprs[i], true
	}
	return nil, false
}

// All returns every compiled expression, in creation order.
func (r *Registry) All() []*AuditExpression {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return slices.Clone(r.exprs)
}

// Apply maintains materialized ID sets after a DML statement against
// table touched inserted/deleted rows (an update contributes to both
// slices). Expressions with a single-table definition update
// incrementally; join definitions re-materialize (standard view
// maintenance would be incremental too; wholesale refresh keeps the
// same observable behaviour, §IV-A.1).
func (r *Registry) Apply(table string, inserted, deleted []value.Row) error {
	var scratch [64]byte
	key := catalog.AppendKey(scratch[:0], table)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.exprs {
		if !e.refTables[string(key)] {
			continue
		}
		if e.singlePred != nil && strings.EqualFold(table, e.Meta.SensitiveTable) {
			if err := e.applyIncremental(inserted, deleted); err != nil {
				return err
			}
			continue
		}
		if err := e.refresh(r.cat, r.store); err != nil {
			return err
		}
	}
	return nil
}

// RefreshAll re-materializes every expression's ID set from current
// data; transaction rollback uses it to discard the incremental
// maintenance the rolled-back statements performed.
func (r *Registry) RefreshAll() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, e := range r.exprs {
		if err := e.refresh(r.cat, r.store); err != nil {
			return err
		}
	}
	return nil
}

// refresh re-materializes the ID set by running the defining query.
func (e *AuditExpression) refresh(cat *catalog.Catalog, store *storage.Store) error {
	node, err := plan.Build(&plan.Env{Catalog: cat}, e.defQuery)
	if err != nil {
		return fmt.Errorf("audit expression %s: %w", e.Meta.Name, err)
	}
	node = opt.Optimize(node)
	rows, err := exec.Run(node, exec.NewCtx(store))
	if err != nil {
		return fmt.Errorf("audit expression %s: %w", e.Meta.Name, err)
	}
	set := newIDSet(len(rows))
	for _, row := range rows {
		if row[0].IsNull() {
			continue
		}
		set.add(row[0])
	}
	e.ids.Store(set)
	return nil
}

// applyIncremental folds per-row changes into a fresh snapshot.
func (e *AuditExpression) applyIncremental(inserted, deleted []value.Row) error {
	set := e.ids.Load().clone()
	ctx := &plan.EvalCtx{}
	for _, row := range deleted {
		match, err := e.singlePred.Eval(ctx, row)
		if err != nil {
			return err
		}
		if value.TriFromValue(match) == value.True {
			set.remove(row[e.keyOrdinal])
		}
	}
	for _, row := range inserted {
		match, err := e.singlePred.Eval(ctx, row)
		if err != nil {
			return err
		}
		if value.TriFromValue(match) == value.True {
			id := row[e.keyOrdinal]
			if !id.IsNull() {
				set.add(id)
			}
		}
	}
	e.ids.Store(set)
	return nil
}

// validateDefinition enforces the paper's restrictions on audit
// expressions (§II-A): simple predicates without subqueries. (The
// key-/foreign-key restriction on joins is advisory; we accept any
// equi-join but reject subqueries outright.)
func validateDefinition(q *ast.Select) error {
	if q.GroupBy != nil || q.Having != nil || q.Limit >= 0 || len(q.OrderBy) > 0 || q.Distinct {
		return fmt.Errorf("defining query must be a plain SELECT-FROM-WHERE")
	}
	if q.Where != nil && hasSubquery(q.Where) {
		return fmt.Errorf("defining query must not contain subqueries")
	}
	if q.Where != nil && hasPlaceholder(q.Where) {
		return fmt.Errorf("defining query must not contain ? placeholders")
	}
	return nil
}

func hasPlaceholder(e ast.Expr) bool {
	found := false
	ast.WalkExprs(e, func(x ast.Expr) {
		if _, ok := x.(*ast.Placeholder); ok {
			found = true
		}
	})
	return found
}

func hasSubquery(e ast.Expr) bool {
	found := false
	ast.WalkExprs(e, func(x ast.Expr) {
		switch x.(type) {
		case *ast.Exists, *ast.InSubquery, *ast.ScalarSubquery:
			found = true
		}
	})
	return found
}

// sensitiveQualifier returns the alias under which the sensitive table
// appears in the defining query's FROM list (needed to project the
// partition key unambiguously when the definition joins other tables).
func sensitiveQualifier(q *ast.Select, table string) string {
	qual := ""
	var visit func(ref ast.TableRef)
	visit = func(ref ast.TableRef) {
		switch r := ref.(type) {
		case *ast.BaseTable:
			if strings.EqualFold(r.Name, table) && qual == "" {
				qual = qualifierOf(r)
			}
		case *ast.JoinRef:
			visit(r.Left)
			visit(r.Right)
		}
	}
	for _, ref := range q.From {
		visit(ref)
	}
	return qual
}

func qualifierOf(bt *ast.BaseTable) string {
	if bt.Alias != "" {
		return bt.Alias
	}
	return bt.Name
}

// referencedTables collects the lower-cased base tables of a query.
func referencedTables(q *ast.Select) map[string]bool {
	out := map[string]bool{}
	var visit func(ref ast.TableRef)
	visit = func(ref ast.TableRef) {
		switch r := ref.(type) {
		case *ast.BaseTable:
			out[strings.ToLower(r.Name)] = true
		case *ast.JoinRef:
			visit(r.Left)
			visit(r.Right)
		case *ast.SubqueryRef:
			for t := range referencedTables(r.Sub) {
				out[t] = true
			}
		}
	}
	for _, ref := range q.From {
		visit(ref)
	}
	return out
}

// tableSchema builds the plan schema of a base table under a
// qualifier.
func tableSchema(meta *catalog.TableMeta, qual string) plan.Schema {
	out := make(plan.Schema, len(meta.Columns))
	for i, c := range meta.Columns {
		out[i] = plan.ColInfo{Qual: qual, Name: c.Name, Kind: c.Type}
	}
	return out
}
