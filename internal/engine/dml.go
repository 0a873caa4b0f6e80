package engine

import (
	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/exec"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
	"auditdb/internal/wal"
	"fmt"
)

// acquireWrite takes the engine's writer lock for one statement, or is
// a no-op when the statement runs inside a transaction that already
// holds it. The returned function releases whatever was taken.
func (e *Engine) acquireWrite(env *actionEnv) func() {
	if env.txn != nil || env.lockHeld {
		return func() {}
	}
	e.dmlMu.Lock()
	return e.dmlMu.Unlock
}

// change records one applied row mutation for undo and trigger firing.
type change struct {
	table    *storage.Table
	id       storage.RowID
	old, new value.Row // old nil = insert, new nil = delete
}

func (e *Engine) runInsert(s *ast.Insert, sql string, env *actionEnv) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}

	// Resolve the optional explicit column list to target ordinals.
	targets, err := resolveColumns(meta, s.Columns)
	if err != nil {
		return nil, err
	}

	var rows []value.Row
	switch {
	case s.Query != nil:
		// INSERT ... SELECT runs the query through the full audited
		// pipeline, so SELECT triggers observe its accesses too.
		r, err := e.runSelect(s.Query, sql, env)
		if err != nil {
			return nil, err
		}
		for _, src := range r.Rows {
			row, err := spreadRow(meta, targets, src)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	default:
		schema := env.outerSchema
		if schema == nil {
			schema = plan.Schema{}
		}
		ctx := e.execCtx(env, sql)
		for _, exprRow := range s.Rows {
			src := make(value.Row, len(exprRow))
			for i, ex := range exprRow {
				compiled, err := plan.BuildScalar(e.planEnv(env), schema, ex)
				if err != nil {
					return nil, err
				}
				v, err := compiled.Eval(ctx.Eval, env.outerRow)
				if err != nil {
					return nil, err
				}
				src[i] = v
			}
			row, err := spreadRow(meta, targets, src)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}

	unlock := e.acquireWrite(env)
	tbl, ok := e.store.Table(s.Table)
	if !ok {
		unlock()
		return nil, fmt.Errorf("table %q has no storage", s.Table)
	}
	var applied []change
	for _, row := range rows {
		id, err := tbl.Insert(row)
		if err != nil {
			undo(applied)
			unlock()
			return nil, err
		}
		stored, _ := tbl.Get(id)
		applied = append(applied, change{table: tbl, id: id, new: stored})
	}
	if env.txn != nil {
		env.txn.record(applied)
	}
	e.bufferDML(env, meta, applied)
	err = e.maintainIDSets(meta, applied)
	unlock()
	if err != nil {
		return nil, err
	}

	if err := e.fireDMLTriggers(meta, applied, sql, env, catalog.TriggerAfterInsert); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(applied)}, nil
}

func (e *Engine) runUpdate(s *ast.Update, sql string, env *actionEnv) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	qual := s.Alias
	if qual == "" {
		qual = meta.Name
	}
	schema := tableSchema(meta, qual)

	var where plan.Expr
	if s.Where != nil {
		w, err := plan.BuildScalar(e.planEnv(env), schema, s.Where)
		if err != nil {
			return nil, err
		}
		where = w
	}
	type assign struct {
		ord  int
		expr plan.Expr
	}
	var assigns []assign
	for _, a := range s.Set {
		ord := meta.ColumnIndex(a.Column)
		if ord < 0 {
			return nil, fmt.Errorf("unknown column %q in UPDATE", a.Column)
		}
		compiled, err := plan.BuildScalar(e.planEnv(env), schema, a.Value)
		if err != nil {
			return nil, err
		}
		assigns = append(assigns, assign{ord: ord, expr: compiled})
	}

	ctx := e.execCtx(env, sql)
	unlock := e.acquireWrite(env)
	tbl, ok := e.store.Table(s.Table)
	if !ok {
		unlock()
		return nil, fmt.Errorf("table %q has no storage", s.Table)
	}
	// Plan the row set first, then apply, to keep iteration stable.
	type pending struct {
		id  storage.RowID
		new value.Row
	}
	var todo []pending
	var evalErr error
	tbl.Snapshot(func(id storage.RowID, row value.Row) bool {
		if where != nil {
			v, err := where.Eval(ctx.Eval, row)
			if err != nil {
				evalErr = err
				return false
			}
			if value.TriFromValue(v) != value.True {
				return true
			}
		}
		newRow := row.Clone()
		for _, a := range assigns {
			v, err := a.expr.Eval(ctx.Eval, row)
			if err != nil {
				evalErr = err
				return false
			}
			newRow[a.ord] = v
		}
		todo = append(todo, pending{id: id, new: newRow})
		return true
	})
	if evalErr != nil {
		unlock()
		return nil, evalErr
	}
	var applied []change
	for _, p := range todo {
		old, err := tbl.Update(p.id, p.new)
		if err != nil {
			undo(applied)
			unlock()
			return nil, err
		}
		stored, _ := tbl.Get(p.id)
		applied = append(applied, change{table: tbl, id: p.id, old: old, new: stored})
	}
	if env.txn != nil {
		env.txn.record(applied)
	}
	e.bufferDML(env, meta, applied)
	err := e.maintainIDSets(meta, applied)
	unlock()
	if err != nil {
		return nil, err
	}

	if err := e.fireDMLTriggers(meta, applied, sql, env, catalog.TriggerAfterUpdate); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(applied)}, nil
}

func (e *Engine) runDelete(s *ast.Delete, sql string, env *actionEnv) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	qual := s.Alias
	if qual == "" {
		qual = meta.Name
	}
	var where plan.Expr
	if s.Where != nil {
		w, err := plan.BuildScalar(e.planEnv(env), tableSchema(meta, qual), s.Where)
		if err != nil {
			return nil, err
		}
		where = w
	}

	ctx := e.execCtx(env, sql)
	unlock := e.acquireWrite(env)
	tbl, ok := e.store.Table(s.Table)
	if !ok {
		unlock()
		return nil, fmt.Errorf("table %q has no storage", s.Table)
	}
	var ids []storage.RowID
	var evalErr error
	tbl.Snapshot(func(id storage.RowID, row value.Row) bool {
		if where != nil {
			v, err := where.Eval(ctx.Eval, row)
			if err != nil {
				evalErr = err
				return false
			}
			if value.TriFromValue(v) != value.True {
				return true
			}
		}
		ids = append(ids, id)
		return true
	})
	if evalErr != nil {
		unlock()
		return nil, evalErr
	}
	var applied []change
	for _, id := range ids {
		old, err := tbl.Delete(id)
		if err != nil {
			undo(applied)
			unlock()
			return nil, err
		}
		applied = append(applied, change{table: tbl, id: id, old: old})
	}
	if env.txn != nil {
		env.txn.record(applied)
	}
	e.bufferDML(env, meta, applied)
	err := e.maintainIDSets(meta, applied)
	unlock()
	if err != nil {
		return nil, err
	}

	if err := e.fireDMLTriggers(meta, applied, sql, env, catalog.TriggerAfterDelete); err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(applied)}, nil
}

// maintainIDSets folds the applied changes into the audit expressions'
// materialized ID sets. Callers hold the writer lock: the sets are
// replaced by clone-and-store, so two writers applying their deltas
// concurrently — or in the opposite order to their row changes — would
// lose or revert an ID (a false negative, Claim 3.6). Under the lock
// the deltas land in commit order. A rollback re-materializes the sets
// after undoing the rows (Txn.Rollback). Callers buffer the changes for
// the WAL first: the rows are in the store whether or not maintenance
// succeeds, so they must be in the log too.
func (e *Engine) maintainIDSets(meta *catalog.TableMeta, applied []change) error {
	if len(applied) == 0 {
		return nil
	}
	var inserted, deleted []value.Row
	for _, c := range applied {
		if c.new != nil {
			inserted = append(inserted, c.new)
		}
		if c.old != nil {
			deleted = append(deleted, c.old)
		}
	}
	if err := e.reg.Apply(meta.Name, inserted, deleted); err != nil {
		return fmt.Errorf("audit expression maintenance: %w", err)
	}
	return nil
}

func undo(applied []change) {
	// Reverse order restores prior state even with overlapping keys.
	for i := len(applied) - 1; i >= 0; i-- {
		c := applied[i]
		switch {
		case c.old == nil: // insert -> delete
			_, _ = c.table.Delete(c.id)
		case c.new == nil: // delete -> restore
			_ = c.table.Restore(c.id, c.old)
		default: // update -> revert
			_, _ = c.table.Update(c.id, c.old)
		}
	}
}

func resolveColumns(meta *catalog.TableMeta, names []string) ([]int, error) {
	if len(names) == 0 {
		out := make([]int, len(meta.Columns))
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	out := make([]int, len(names))
	seen := map[int]bool{}
	for i, n := range names {
		ord := meta.ColumnIndex(n)
		if ord < 0 {
			return nil, fmt.Errorf("unknown column %q in table %s", n, meta.Name)
		}
		if seen[ord] {
			return nil, fmt.Errorf("column %q listed twice", n)
		}
		seen[ord] = true
		out[i] = ord
	}
	return out, nil
}

// spreadRow expands a source tuple (matching the target column list)
// into a full-width row, NULL-filling unlisted columns.
func spreadRow(meta *catalog.TableMeta, targets []int, src value.Row) (value.Row, error) {
	if len(src) != len(targets) {
		return nil, fmt.Errorf("table %s: expected %d values, got %d", meta.Name, len(targets), len(src))
	}
	row := make(value.Row, len(meta.Columns))
	for i := range row {
		row[i] = value.Null
	}
	for i, ord := range targets {
		row[ord] = src[i]
	}
	return row, nil
}

func tableSchema(meta *catalog.TableMeta, qual string) plan.Schema {
	out := make(plan.Schema, len(meta.Columns))
	for i, c := range meta.Columns {
		out[i] = plan.ColInfo{Qual: qual, Name: c.Name, Kind: c.Type}
	}
	return out
}

// LoadRows bulk-inserts pre-typed rows, bypassing SQL parsing but not
// constraint checks or audit-set maintenance. Triggers do not fire;
// generators use this to build benchmark databases quickly.
func (e *Engine) LoadRows(table string, rows []value.Row) error {
	meta, ok := e.cat.Table(table)
	if !ok {
		return fmt.Errorf("unknown table %q", table)
	}
	e.dmlMu.Lock()
	tbl, ok := e.store.Table(table)
	if !ok {
		e.dmlMu.Unlock()
		return fmt.Errorf("table %q has no storage", table)
	}
	var applied []change
	for _, row := range rows {
		id, err := tbl.Insert(row)
		if err != nil {
			undo(applied)
			e.dmlMu.Unlock()
			return err
		}
		stored, _ := tbl.Get(id)
		applied = append(applied, change{table: tbl, id: id, new: stored})
	}
	// One commit record for the whole batch, appended while the writer
	// lock still excludes checkpoints.
	var walErr error
	if e.wal != nil && len(applied) > 0 {
		ops := make([]wal.Op, len(applied))
		for i, c := range applied {
			ops[i] = wal.Op{Kind: wal.OpInsert, Table: meta.Name, New: c.new}
		}
		walErr = e.wal.AppendCommit(ops)
	}
	applyErr := e.maintainIDSets(meta, applied)
	e.dmlMu.Unlock()
	if walErr != nil {
		return walErr
	}
	return applyErr
}

// DrainPlan executes a prepared plan against the engine's store with a
// fresh context but discards rows instead of materializing them,
// returning only the row count. Overhead measurements use it to time
// instrumented versus plain plans without re-planning, and so that
// result-buffer retention (identical on both sides anyway) does not
// drown the audit operator's cost in GC noise.
func (e *Engine) DrainPlan(n plan.Node, sql string) (int, error) {
	ctx := e.execCtx(rootActionEnv(), sql)
	count, err := exec.Drain(n, ctx)
	e.stats.RowsScanned.Add(ctx.Stats.RowsScanned.Load())
	return count, err
}
