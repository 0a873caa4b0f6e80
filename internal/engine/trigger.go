package engine

import (
	"fmt"
	"strings"
	"time"

	"auditdb/internal/catalog"
	"auditdb/internal/core"
	"auditdb/internal/plan"
	"auditdb/internal/trace"
	"auditdb/internal/triage"
	"auditdb/internal/value"
)

// accessedName is the pseudo-relation exposed to SELECT-trigger
// actions (the paper's ACCESSED internal state, §II).
const accessedName = "accessed"

// fireAccessTriggers runs the actions of every ON ACCESS trigger bound
// to the audit expression, with the ACCESSED relation holding the IDs
// the audit operators recorded for this query. Each action runs as its
// own system transaction after the query completes. exact says the
// recorded IDs are the Definition 2.3 answer (compiled.exact), which
// lets triage sign the firing's verdict without a replay.
func (e *Engine) fireAccessTriggers(ae *core.AuditExpression, acc *core.Accessed, exact bool, sql string, env *actionEnv) error {
	triggers := e.cat.TriggersFor(catalog.TriggerOnAccess, ae.Meta.Name)
	if len(triggers) == 0 {
		return nil
	}

	// Bind ACCESSED: one column named after the partition-by key.
	tbl, ok := e.cat.Table(ae.Meta.SensitiveTable)
	if !ok {
		return fmt.Errorf("sensitive table %q disappeared", ae.Meta.SensitiveTable)
	}
	keyKind := tbl.Columns[ae.KeyOrdinal()].Type
	schema := plan.Schema{{Qual: "ACCESSED", Name: ae.Meta.PartitionBy, Kind: keyKind}}
	ids := acc.IDs(ae.Meta.Name)
	rows := make([]value.Row, len(ids))
	for i, id := range ids {
		rows[i] = value.Row{id}
	}

	// The firing itself is evidence: append it to the hash-chained audit
	// stream before the action bodies run, so even an action that errors
	// leaves the access on record. The statement's query ID goes into
	// the record (and under the hash chain), correlating the audit trail
	// with the trace.
	sess := e.sessionOf(env)
	rec := &sess.rec
	if e.wal != nil {
		t0 := time.Now()
		auditSeq, err := e.wal.AppendAudit(sess.User(), ae.Meta.Name, sql, ids, rec.QID(), t0.UnixNano())
		d := time.Since(t0)
		rec.AddPhase(trace.PhaseWAL, d)
		if id := rec.AddSpan(rec.Current(), "wal.audit.append", t0, d); id >= 0 {
			rec.SetAttr(id, "expr", ae.Meta.Name)
			rec.SetAttrInt(id, "ids", int64(len(ids)))
		}
		if err != nil {
			return fmt.Errorf("audit log append: %w", err)
		}
		// Hand the firing to the background verification queue. Inside
		// an explicit transaction the event is deferred to COMMIT: the
		// audit record above survives a rollback (the chain is evidence
		// either way), but a verdict on a rolled-back read would audit
		// state that never committed.
		if svc := e.triage; svc.Enabled() {
			ev := triage.Event{
				AuditSeq: auditSeq,
				QID:      rec.QID(),
				User:     sess.User(),
				Expr:     ae.Meta.Name,
				SQL:      sql,
				NumIDs:   len(ids),
				Priority: ae.Meta.Priority,
				Exact:    exact,
			}
			if env.txn != nil {
				env.txn.pendTriage = append(env.txn.pendTriage, ev)
			} else {
				svc.Enqueue(ev)
			}
		}
	}

	for _, meta := range triggers {
		ct := e.compiled(meta.Name)
		if ct == nil {
			return fmt.Errorf("trigger %q has no compiled body", meta.Name)
		}
		// The action is its own system transaction (§II): its writes do
		// not roll back with a reading transaction, keeping the audit
		// trail tamper-resistant — and its own WAL unit, committed when
		// the action completes, for the same reason.
		sub := env.systemChild()
		sub.extraSchema = map[string]plan.Schema{accessedName: schema}
		sub.extraRows = map[string][]value.Row{accessedName: rows}
		if e.wal != nil {
			sub.unit = &walUnit{}
		}
		e.stats.TriggersFired.Add(1)
		e.Logger().Info("select trigger fired",
			"trigger", meta.Name,
			"expression", ae.Meta.Name,
			"table", ae.Meta.SensitiveTable,
			"user", sess.User(),
			"accessed_ids", len(ids),
			"qid", rec.QID(),
			"sql", sql,
		)
		span := rec.StartSpan("audit.fire")
		if span >= 0 {
			rec.SetAttr(span, "trigger", meta.Name)
			rec.SetAttr(span, "expr", ae.Meta.Name)
			rec.SetAttrInt(span, "ids", int64(len(ids)))
		}
		var bodyErr error
		for _, stmt := range ct.body {
			if _, err := e.execStmt(stmt, sql, sub); err != nil {
				bodyErr = fmt.Errorf("trigger %s: %w", meta.Name, err)
				break
			}
		}
		// Flush even on error: a partially executed action's applied
		// writes stay in memory (system transactions have no undo), so
		// they must reach the log too.
		if err := e.flushUnitTraced(sess, sub.unit); err != nil && bodyErr == nil {
			bodyErr = fmt.Errorf("trigger %s: %w", meta.Name, err)
		}
		rec.EndSpan(span)
		if bodyErr != nil {
			return bodyErr
		}
	}
	return nil
}

// fireDMLTriggers runs row-level AFTER triggers for each applied
// change, binding NEW/OLD as an implicit outer row for the body's
// statements (mirrors SQL's NEW./OLD. references).
func (e *Engine) fireDMLTriggers(meta *catalog.TableMeta, applied []change, sql string, env *actionEnv, kind catalog.TriggerKind) error {
	triggers := e.cat.TriggersFor(kind, meta.Name)
	if len(triggers) == 0 {
		return nil
	}
	newSchema := tableSchema(meta, "NEW")
	oldSchema := tableSchema(meta, "OLD")

	for _, c := range applied {
		var schema plan.Schema
		var row value.Row
		switch kind {
		case catalog.TriggerAfterInsert:
			schema, row = newSchema, c.new
		case catalog.TriggerAfterDelete:
			schema, row = oldSchema, c.old
		case catalog.TriggerAfterUpdate:
			schema = append(append(plan.Schema{}, newSchema...), oldSchema...)
			row = c.new.Concat(c.old)
		default:
			return fmt.Errorf("unexpected trigger kind %v", kind)
		}
		for _, tm := range triggers {
			ct := e.compiled(tm.Name)
			if ct == nil {
				return fmt.Errorf("trigger %q has no compiled body", tm.Name)
			}
			sub := env.child()
			sub.outerSchema = schema
			sub.outerRow = row
			e.stats.TriggersFired.Add(1)
			e.Logger().Debug("dml trigger fired",
				"trigger", tm.Name,
				"table", meta.Name,
				"user", e.sessionOf(env).User(),
			)
			for _, stmt := range ct.body {
				if _, err := e.execStmt(stmt, sql, sub); err != nil {
					return fmt.Errorf("trigger %s: %w", tm.Name, err)
				}
			}
		}
	}
	return nil
}

func (e *Engine) compiled(name string) *compiledTrigger {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.triggers[strings.ToLower(name)]
}
