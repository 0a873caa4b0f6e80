package engine

import (
	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/exec"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
	"auditdb/internal/wal"
	"cmp"
	"fmt"
	"slices"
	"strings"
)

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

	// Resolve the optional explicit column list to target ordinals; nil
	// when the rows already come in the table's own column order.
	targets, err := resolveColumns(meta, s.Columns)
	if err != nil {
		return nil, err
	}

	var rows []value.Row
	if s.Query != nil {
		// INSERT ... SELECT runs the query through the full audited
		// pipeline, so SELECT triggers observe its accesses too.
		r, err := e.runSelect(s.Query, sql, env)
		if err != nil {
			return nil, err
		}
		rows = r.Rows
		for i, src := range rows {
			if rows[i], err = spreadRow(meta, targets, src); err != nil {
				return nil, err
			}
		}
	} else {
		ctx := e.execCtx(env, sql)
		rows = make([]value.Row, len(s.Rows))
		for i, exprRow := range s.Rows {
			src := make(value.Row, len(exprRow))
			for j, ex := range exprRow {
				compiled, err := plan.BuildScalar(e.planEnv(env), env.outerSchema, ex)
				if err != nil {
					return nil, err
				}
				if src[j], err = compiled.Eval(ctx.Eval, env.outerRow); err != nil {
					return nil, err
				}
			}
			if rows[i], err = spreadRow(meta, targets, src); err != nil {
				return nil, err
			}
		}
	}
	return e.applyDML(meta, sql, env, catalog.TriggerAfterInsert, func(tbl *storage.Table) ([]change, error) {
		return insertRows(tbl, rows)
	})
}

func (e *Engine) runUpdate(s *ast.Update, sql string, env *actionEnv) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	ords := make([]int, len(s.Set))
	set := make([]ast.Expr, len(s.Set))
	for i, a := range s.Set {
		if ords[i] = meta.ColumnIndex(a.Column); ords[i] < 0 {
			return nil, fmt.Errorf("unknown column %q in UPDATE", a.Column)
		}
		if plan.ContainsAggregate(a.Value) {
			return nil, fmt.Errorf("aggregate in UPDATE SET %s is not allowed", a.Column)
		}
		set[i] = a.Value
	}
	width := len(meta.Columns)
	return e.writeMatched(meta, s.Alias, s.Where, set, sql, env, catalog.TriggerAfterUpdate,
		func(tbl *storage.Table, id storage.RowID, row value.Row) (change, error) {
			// The read's row is the executor's own: the old values, then
			// the SET values computed from them, assigned in order so a
			// repeated column's last one wins.
			newRow := row[:width:width]
			for j, ord := range ords {
				newRow[ord] = row[width+j]
			}
			old, err := tbl.Update(id, newRow)
			stored, _ := tbl.Get(id)
			return change{table: tbl, id: id, old: old, new: stored}, err
		})
}

func (e *Engine) runDelete(s *ast.Delete, sql string, env *actionEnv) (*Result, error) {
	meta, ok := e.cat.Table(s.Table)
	if !ok {
		return nil, fmt.Errorf("unknown table %q", s.Table)
	}
	return e.writeMatched(meta, s.Alias, s.Where, nil, sql, env, catalog.TriggerAfterDelete,
		func(tbl *storage.Table, id storage.RowID, _ value.Row) (change, error) {
			old, err := tbl.Delete(id)
			return change{table: tbl, id: id, old: old}, err
		})
}

// writeMatched is UPDATE's and DELETE's body. It plans their read as the
// SELECT it is, SELECT * [, set...] FROM table [AS alias] [WHERE where],
// through the SELECT pipeline's front half (build, against the trigger's
// NEW/OLD row inside a trigger body, and optimize) but never instruments
// or parallelizes it: the paper leaves DML reads out of auditing, and
// the rows must come back as one stream carrying their row IDs. Under
// the writer lock it runs the read to the end, and only then calls write
// for each matched row, so a SET that fails on some row writes nothing.
// Rows are written in ascending RowID order: a heap scan produces them
// so, an index lookup produces its candidates in insertion order.
func (e *Engine) writeMatched(meta *catalog.TableMeta, alias string, where ast.Expr, set []ast.Expr, sql string, env *actionEnv,
	kind catalog.TriggerKind, write func(*storage.Table, storage.RowID, value.Row) (change, error)) (*Result, error) {
	sel := &ast.Select{
		Items: []ast.SelectItem{{Star: true}},
		From:  []ast.TableRef{&ast.BaseTable{Name: meta.Name, Alias: alias}},
		Where: where,
		Limit: -1,
	}
	for _, x := range set {
		sel.Items = append(sel.Items, ast.SelectItem{Expr: x})
	}
	benv := *env
	if strings.EqualFold(meta.Name, accessedName) {
		// The target is the stored table, even where a trigger's ACCESSED
		// relation shares its name.
		benv.accessed = plan.ColInfo{}
	}
	read, err := e.build(sel, &benv)
	if err != nil {
		return nil, err
	}
	return e.applyDML(meta, sql, env, kind, func(tbl *storage.Table) ([]change, error) {
		ctx := e.execCtx(env, sql)
		if read.correlated {
			ctx.Eval.PushOuter(env.outerRow)
		}
		in := exec.NewInstance(read.root, ctx)
		rows, ids, err := in.RunIDs()
		t := in.Totals()
		e.foldStats(e.sessionOf(env), &t)
		if err != nil {
			return nil, err
		}
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		slices.SortFunc(order, func(a, b int) int { return cmp.Compare(ids[a], ids[b]) })
		applied := make([]change, 0, len(ids))
		for _, i := range order {
			c, err := write(tbl, ids[i], rows[i])
			if err != nil {
				return applied, err
			}
			applied = append(applied, c)
		}
		return applied, nil
	})
}

// applyDML is the write tail INSERT, UPDATE and DELETE share. Under the
// writer lock — unless the statement's transaction already holds it —
// it runs apply, which reads what it needs and writes the rows,
// returning the changes it made (those before the failure when it
// fails), and undoes a failed apply; it records the changes in the
// transaction's undo log and the statement's WAL unit and folds them
// into the audit expressions' ID sets. With the lock released it fires
// the table's AFTER triggers of kind, one row at a time in apply order.
func (e *Engine) applyDML(meta *catalog.TableMeta, sql string, env *actionEnv, kind catalog.TriggerKind, apply func(*storage.Table) ([]change, error)) (*Result, error) {
	applied, err := func() ([]change, error) {
		if env.txn == nil && !env.lockHeld {
			e.dmlMu.Lock()
			defer e.dmlMu.Unlock()
		}
		tbl, ok := e.store.Table(meta.Name)
		if !ok {
			return nil, fmt.Errorf("table %q has no storage", meta.Name)
		}
		applied, err := apply(tbl)
		if err != nil {
			undo(applied)
			return nil, err
		}
		if env.txn != nil {
			env.txn.record(applied)
		}
		e.bufferDML(env, meta, applied)
		return applied, e.maintainIDSets(meta, applied)
	}()
	if err == nil {
		err = e.fireDMLTriggers(meta, applied, sql, env, kind)
	}
	if err != nil {
		return nil, err
	}
	return &Result{RowsAffected: len(applied)}, nil
}

// insertRows inserts rows into tbl as one batch, returning the changes
// made (those before the failing row when one fails).
func insertRows(tbl *storage.Table, rows []value.Row) ([]change, error) {
	applied := make([]change, 0, len(rows))
	err := tbl.InsertRows(rows, func(id storage.RowID, stored value.Row) {
		applied = append(applied, change{table: tbl, id: id, new: stored})
	})
	return applied, err
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

// resolveColumns maps an INSERT's column list to target ordinals. It
// returns nil when the list is absent or names every column in table
// order: the source rows are then full-width rows as they stand.
func resolveColumns(meta *catalog.TableMeta, names []string) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]int, len(names))
	seen := map[int]bool{}
	inOrder := len(names) == len(meta.Columns)
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
		inOrder = inOrder && ord == i
	}
	if inOrder {
		return nil, nil
	}
	return out, nil
}

// spreadRow expands a source tuple (matching the target column list)
// into a full-width row, NULL-filling unlisted columns. With nil
// targets the tuple is the row itself.
func spreadRow(meta *catalog.TableMeta, targets []int, src value.Row) (value.Row, error) {
	want := len(targets)
	if targets == nil {
		want = len(meta.Columns)
	}
	if len(src) != want {
		return nil, fmt.Errorf("table %s: expected %d values, got %d", meta.Name, want, len(src))
	}
	if targets == nil {
		return src, nil
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
	applied, err := insertRows(tbl, rows)
	if err != nil {
		undo(applied)
		e.dmlMu.Unlock()
		return err
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
	in := exec.NewInstance(n, e.execCtx(rootActionEnv(), sql))
	count, err := in.Drain()
	e.stats.RowsScanned.Add(in.Totals().RowsScanned)
	return count, err
}
