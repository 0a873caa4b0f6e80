package core

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// idRecord is the per-expression set of recorded IDs. Integer IDs — the
// overwhelmingly common partition-by key kind — live in a map keyed by
// the raw int64, so recording one costs a single map insert and zero
// allocations (no encoded-key string); every other kind falls back to a
// string-keyed map.
type idRecord struct {
	ints  map[int64]struct{}
	other map[string]value.Value
}

func (r *idRecord) add(id value.Value) {
	if id.Kind == value.KindInt {
		if r.ints == nil {
			r.ints = make(map[int64]struct{})
		}
		r.ints[id.I] = struct{}{}
		return
	}
	if r.other == nil {
		r.other = make(map[string]value.Value)
	}
	r.other[value.KeyOf(id)] = id
}

func (r *idRecord) size() int {
	if r == nil {
		return 0
	}
	return len(r.ints) + len(r.other)
}

// Accessed is a query's ACCESSED internal state (§II of the paper): the
// per-query, in-memory relation of partition-by IDs recorded by the
// audit operators in its plan. When a plan carries several audit
// operators (multiple expressions, or one per subquery block), the
// state holds the union per expression.
type Accessed struct {
	mu     sync.Mutex
	byExpr map[string]*idRecord
	// observed counts every row an audit operator inspected,
	// independent of matches; used by the overhead benchmarks.
	observed atomic.Int64
}

// NewAccessed returns empty ACCESSED state for one query execution.
// The per-expression map is made on the first record, so a query that
// accesses nothing sensitive allocates only the struct.
func NewAccessed() *Accessed {
	return &Accessed{}
}

func (a *Accessed) record(expr string) *idRecord {
	rec, ok := a.byExpr[expr]
	if !ok {
		if a.byExpr == nil {
			a.byExpr = make(map[string]*idRecord)
		}
		rec = &idRecord{}
		a.byExpr[expr] = rec
	}
	return rec
}

// Record notes that id (a sensitive ID of the named expression) was
// seen by an audit operator.
func (a *Accessed) Record(expr string, id value.Value) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.record(expr).add(id)
}

// RecordBatch notes a batch of sensitive IDs under one lock
// acquisition. It is equivalent to calling Record for each element
// (the set semantics absorb duplicates); the batched executor uses it
// so the per-row cost of the ACCESSED mutex disappears from the probe
// hot path.
func (a *Accessed) RecordBatch(expr string, ids []value.Value) {
	if len(ids) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := a.record(expr)
	for _, id := range ids {
		rec.add(id)
	}
}

// AddObserved bulk-increments the observed-row counter (one atomic add
// per batch on the vectorized path).
func (a *Accessed) AddObserved(n int64) { a.observed.Add(n) }

// IDs returns the audited IDs for one expression, sorted for
// deterministic consumption by trigger actions and tests.
func (a *Accessed) IDs(expr string) []value.Value {
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := a.byExpr[expr]
	if rec == nil {
		return nil
	}
	out := make([]value.Value, 0, rec.size())
	if len(rec.other) == 0 {
		// Integer keys only, the common case: sort them as int64s, the
		// order value.Compare gives, then box. A small set sorts on the
		// stack.
		var buf [64]int64
		keys := buf[:0]
		for i := range rec.ints {
			keys = append(keys, i)
		}
		slices.Sort(keys)
		for _, i := range keys {
			out = append(out, value.NewInt(i))
		}
		return out
	}
	for i := range rec.ints {
		out = append(out, value.NewInt(i))
	}
	for _, v := range rec.other {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return value.Compare(out[i], out[j]) < 0 })
	return out
}

// Len returns the number of distinct audited IDs for one expression.
func (a *Accessed) Len(expr string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byExpr[expr].size()
}

// Expressions returns the names of expressions with at least one
// audited ID, sorted.
func (a *Accessed) Expressions() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.byExpr))
	for name, rec := range a.byExpr {
		if rec.size() > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Observed returns how many rows flowed through audit operators.
func (a *Accessed) Observed() int64 { return a.observed.Load() }

// MergeSets unions a worker-local observation set into the expression's
// record under one lock acquisition — the union-merge step of parallel
// audit probing. Audit probes are pure and commutative (paper Claim
// 3.6), so the union over workers equals the serial ACCESSED set
// regardless of how morsels were interleaved.
func (a *Accessed) MergeSets(expr string, ints map[int64]struct{}, other map[string]value.Value) {
	if len(ints) == 0 && len(other) == 0 {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := a.record(expr)
	if len(ints) > 0 && rec.ints == nil {
		rec.ints = make(map[int64]struct{}, len(ints))
	}
	for i := range ints {
		rec.ints[i] = struct{}{}
	}
	if len(other) > 0 && rec.other == nil {
		rec.other = make(map[string]value.Value, len(other))
	}
	for k, v := range other {
		rec.other[k] = v
	}
}

// Probe is the audit operator's sink (plan.AuditSink): a hash probe of
// the expression's materialized sensitive-ID set; matches are recorded
// into the ACCESSED state. This is the paper's "hash join whose build
// side is the audit expression's ID view" (§IV-A.2).
//
// A Probe records into one query execution's Acc. It keeps no other
// per-execution state — RecordBatch dedups in the record map itself —
// so a cached plan's probes serve the next execution by pointing Acc
// at its fresh ACCESSED state, and no first-seen cache can carry a
// previous execution's IDs into a false negative (Claim 3.6).
type Probe struct {
	Expr *AuditExpression
	Acc  *Accessed

	// fresh accumulates a batch's matches so ObserveBatch records them
	// with one RecordBatch call; reused across batches.
	fresh []value.Value
}

// ObserveCount implements plan.AuditSink: the fused kernel advances
// the observed-row counter for a chunk whose sensitive-ID sketch
// refuted every row, eliding the per-row probes. ACCESSED is untouched
// — identical to n probes that all missed.
func (p *Probe) ObserveCount(n int64) { p.Acc.observed.Add(n) }

// ObserveBatch implements plan.AuditSink: one atomic add for the
// observed counter, the lock-free membership probe per value, and at
// most one ACCESSED lock acquisition per batch.
func (p *Probe) ObserveBatch(vs []value.Value) int {
	p.Acc.observed.Add(int64(len(vs)))
	p.fresh = p.fresh[:0]
	for _, v := range vs {
		if p.Expr.Contains(v) {
			p.fresh = append(p.fresh, v)
		}
	}
	if len(p.fresh) > 0 {
		p.Acc.RecordBatch(p.Expr.Meta.Name, p.fresh)
	}
	return len(p.fresh)
}

// Fork implements plan.AuditSink: it returns a worker-local
// probe whose matches accumulate in private sets, untouched by any
// lock, until Merge folds them into the shared ACCESSED state. The
// membership side (Expr.Contains) reads an atomic snapshot of the ID
// set and is safe to share across workers.
func (p *Probe) Fork() plan.WorkerAuditSink {
	return &workerProbe{parent: p}
}

// workerProbe is one worker's forked audit sink. All fields are
// touched by exactly one goroutine until Merge, which the exchange
// operator calls after the worker has stopped producing.
type workerProbe struct {
	parent   *Probe
	ints     map[int64]struct{}
	other    map[string]value.Value
	observed int64
}

// ObserveCount implements plan.WorkerAuditSink: sketch-refuted
// probes advance the worker's observed count and nothing else.
func (w *workerProbe) ObserveCount(n int64) { w.observed += n }

// ObserveBatch implements plan.WorkerAuditSink: no locks, no atomics —
// the whole batch lands in private maps.
func (w *workerProbe) ObserveBatch(vs []value.Value) int {
	w.observed += int64(len(vs))
	hits := 0
	for _, v := range vs {
		if w.parent.Expr.Contains(v) {
			w.add(v)
			hits++
		}
	}
	return hits
}

func (w *workerProbe) add(v value.Value) {
	if v.Kind == value.KindInt {
		if w.ints == nil {
			w.ints = make(map[int64]struct{})
		}
		w.ints[v.I] = struct{}{}
		return
	}
	if w.other == nil {
		w.other = make(map[string]value.Value)
	}
	w.other[value.KeyOf(v)] = v
}

// Merge folds this worker's observations into the parent's ACCESSED
// state: one atomic add for the observed counter and one MergeSets
// lock acquisition — per worker per query, not per batch.
func (w *workerProbe) Merge() {
	if w.observed > 0 {
		w.parent.Acc.observed.Add(w.observed)
	}
	w.parent.Acc.MergeSets(w.parent.Expr.Meta.Name, w.ints, w.other)
	w.ints, w.other, w.observed = nil, nil, 0
}
