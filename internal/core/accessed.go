package core

import (
	"sort"
	"sync"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// Accessed is a query's ACCESSED internal state (§II of the paper): the
// per-query, in-memory relation of partition-by IDs recorded by the
// audit operators in its plan. When a plan carries several audit
// operators (multiple expressions, or one per subquery block), the
// state holds the union per expression. A nil *Accessed is a query
// that recorded nothing.
type Accessed struct {
	mu     sync.Mutex
	byExpr map[string]*idSet
}

// NewAccessed returns empty ACCESSED state for one query execution.
// The per-expression map is made on the first record, so a query that
// accesses nothing sensitive allocates only the struct.
func NewAccessed() *Accessed {
	return &Accessed{}
}

func (a *Accessed) record(expr string) *idSet {
	rec, ok := a.byExpr[expr]
	if !ok {
		if a.byExpr == nil {
			a.byExpr = make(map[string]*idSet)
		}
		rec = &idSet{}
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

// IDs returns the audited IDs for one expression, sorted for
// deterministic consumption by trigger actions and tests.
func (a *Accessed) IDs(expr string) []value.Value {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	rec := a.byExpr[expr]
	if rec == nil {
		return nil
	}
	return rec.sorted()
}

// Len returns the number of distinct audited IDs for one expression.
func (a *Accessed) Len(expr string) int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if rec := a.byExpr[expr]; rec != nil {
		return rec.len()
	}
	return 0
}

// Expressions returns the names of expressions with at least one
// audited ID, sorted.
func (a *Accessed) Expressions() []string {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]string, 0, len(a.byExpr))
	for name, rec := range a.byExpr {
		if rec.len() > 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Probe is the audit operator's sink (plan.AuditSink): a hash probe of
// the expression's materialized sensitive-ID set; matches are recorded
// into the ACCESSED state. This is the paper's "hash join whose build
// side is the audit expression's ID view" (§IV-A.2). The operator's
// record counts the probes (obs.NodeStats.Probes), elided ones
// included.
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

// ObserveBatch implements plan.AuditSink: the lock-free membership
// probe per value, and at most one ACCESSED lock acquisition per batch.
func (p *Probe) ObserveBatch(vs []value.Value) int {
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

// Fork implements plan.AuditSink: it returns a worker-local probe
// whose matches accumulate in a private set, untouched by any lock,
// until Merge unions it into the shared ACCESSED state. The membership
// side (Expr.Contains) reads an atomic snapshot of the ID set and is
// safe to share across workers.
func (p *Probe) Fork() plan.WorkerAuditSink {
	return &workerProbe{parent: p}
}

// workerProbe is one worker's forked audit sink. All fields are
// touched by exactly one goroutine until Merge, which the exchange
// operator calls after the worker has stopped producing.
type workerProbe struct {
	parent *Probe
	ids    idSet
}

// ObserveBatch implements plan.WorkerAuditSink: no locks, no atomics —
// the whole batch lands in the private set.
func (w *workerProbe) ObserveBatch(vs []value.Value) int {
	hits := 0
	for _, v := range vs {
		if w.parent.Expr.Contains(v) {
			w.ids.add(v)
			hits++
		}
	}
	return hits
}

// Merge unions this worker's matches into the parent's ACCESSED state
// under one lock acquisition — per worker per query, not per batch.
// Audit probes are pure and commutative (paper Claim 3.6), so the union
// over workers equals the serial ACCESSED set regardless of how
// morsels were interleaved.
func (w *workerProbe) Merge() {
	if w.ids.len() > 0 {
		acc := w.parent.Acc
		acc.mu.Lock()
		acc.record(w.parent.Expr.Meta.Name).union(&w.ids)
		acc.mu.Unlock()
	}
	w.ids = idSet{}
}
