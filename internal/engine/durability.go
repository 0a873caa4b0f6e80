package engine

import (
	"fmt"
	"io"
	"strings"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/parser"
	"auditdb/internal/storage"
	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// Durability. With a wal.Manager attached, the engine logs every
// committed atomic unit — a top-level autocommit statement with its
// whole trigger cascade, an explicit transaction, or a SELECT
// trigger's system transaction — as one WAL commit record of physical
// row images plus canonical DDL text. Replay applies the images
// directly to storage and never re-fires triggers (their effects are
// already in the record), then rebuilds the audit-expression ID sets.
//
// The one race that could corrupt recovery is a commit interleaving
// with a checkpoint: if a change is captured by the snapshot AND its
// commit record survives in a post-checkpoint segment, replay applies
// it twice. ckptMu prevents it. Lock order is ckptMu before dmlMu:
//
//   - autocommit statements hold ckptMu.RLock from before their first
//     write until their commit record is appended (execStmt);
//   - explicit transactions skip ckptMu entirely — they hold dmlMu
//     from Begin to Commit, and Commit appends the record before
//     releasing it;
//   - Engine.Checkpoint takes ckptMu.Lock then dmlMu.Lock, so it runs
//     only when no statement is mid-flush and no transaction is open.

// walUnit buffers the operations of one atomic unit until its commit
// point. Units are confined to a single statement/transaction flow,
// so no locking.
type walUnit struct {
	ops []wal.Op
}

// AttachWAL enables durability. Call once, after Recover and before
// the engine serves statements; the field is read without
// synchronization on every statement.
func (e *Engine) AttachWAL(m *wal.Manager) { e.wal = m }

// WAL returns the attached manager (nil when durability is off).
func (e *Engine) WAL() *wal.Manager { return e.wal }

// CloseWAL flushes and closes the attached manager, if any.
func (e *Engine) CloseWAL() error {
	if e.wal == nil {
		return nil
	}
	return e.wal.Close()
}

// Recover rebuilds engine state from what wal.Open found: load the
// snapshot, replay the commit records after it, re-materialize the
// audit-expression ID sets. Must run before AttachWAL so the replay
// itself is not re-logged.
func (e *Engine) Recover(rec *wal.Recovery) error {
	if e.wal != nil {
		return fmt.Errorf("Recover must run before AttachWAL")
	}
	start := time.Now()
	if rec.HasSnapshot {
		if err := e.replay(rec.SnapshotSQL); err != nil {
			return fmt.Errorf("loading checkpoint snapshot: %w", err)
		}
	}
	for i, c := range rec.Commits {
		if err := e.applyCommit(c); err != nil {
			return fmt.Errorf("replaying commit %d of %d: %w", i+1, len(rec.Commits), err)
		}
	}
	if err := e.reg.RefreshAll(); err != nil {
		return fmt.Errorf("rebuilding audit sets after replay: %w", err)
	}
	// NewMetrics is idempotent per registry, so this reads the same
	// histogram the manager's writer observes into.
	wal.NewMetrics(e.metrics).RecoveryDur.ObserveDuration(time.Since(start))
	return nil
}

// replay re-executes logged SQL under the default session. Recovery is
// not a statement: no record opens, so replay takes no query IDs and
// leaves no traces.
func (e *Engine) replay(sql string) error {
	stmts, err := parser.ParseScript(sql)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		if _, err := e.execStmt(st, sql, rootActionEnv()); err != nil {
			return err
		}
	}
	return nil
}

// applyCommit replays one unit: DDL by re-execution, DML by applying
// the logged row images directly to storage. Triggers do not fire —
// every write a trigger made at runtime is an op in some record.
func (e *Engine) applyCommit(c *wal.Commit) error {
	for _, op := range c.Ops {
		if op.Kind == wal.OpDDL {
			if err := e.replay(op.SQL); err != nil {
				return fmt.Errorf("replayed DDL %q: %w", op.SQL, err)
			}
			continue
		}
		meta, ok := e.cat.Table(op.Table)
		if !ok {
			return fmt.Errorf("replayed %v on unknown table %q", op.Kind, op.Table)
		}
		tbl, ok := e.store.Table(op.Table)
		if !ok {
			return fmt.Errorf("table %q has no storage", op.Table)
		}
		switch op.Kind {
		case wal.OpInsert:
			if _, err := tbl.Insert(op.New); err != nil {
				return fmt.Errorf("replaying insert into %s: %w", op.Table, err)
			}
		case wal.OpUpdate:
			id, ok := findRowByImage(tbl, meta, op.Old)
			if !ok {
				return fmt.Errorf("replaying update on %s: old row image not found", op.Table)
			}
			if _, err := tbl.Update(id, op.New); err != nil {
				return fmt.Errorf("replaying update on %s: %w", op.Table, err)
			}
		case wal.OpDelete:
			id, ok := findRowByImage(tbl, meta, op.Old)
			if !ok {
				return fmt.Errorf("replaying delete on %s: old row image not found", op.Table)
			}
			if _, err := tbl.Delete(id); err != nil {
				return fmt.Errorf("replaying delete on %s: %w", op.Table, err)
			}
		default:
			return fmt.Errorf("unknown replay op kind %d", op.Kind)
		}
	}
	return nil
}

// findRowByImage locates the storage row matching a logged image.
// Replay cannot address rows by RowID — checkpoint snapshots compact
// tombstones, renumbering the heap — so updates and deletes carry the
// full old image: primary-key lookup when the table has one, full
// scan otherwise.
func findRowByImage(tbl *storage.Table, meta *catalog.TableMeta, image value.Row) (storage.RowID, bool) {
	if len(meta.PrimaryKey) > 0 && len(image) == len(meta.Columns) {
		key := make(value.Row, len(meta.PrimaryKey))
		for i, ord := range meta.PrimaryKey {
			key[i] = image[ord]
		}
		if id, ok := tbl.LookupPK(key); ok {
			return id, true
		}
		return 0, false
	}
	var found storage.RowID
	ok := false
	tbl.Snapshot(func(id storage.RowID, row value.Row) bool {
		if rowsEqual(row, image) {
			found, ok = id, true
			return false
		}
		return true
	})
	return found, ok
}

func rowsEqual(a, b value.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// unitOf resolves the atomic unit a statement's writes belong to: the
// enclosing transaction's (created lazily — Txn construction predates
// durability in two places), else the environment's.
func (e *Engine) unitOf(env *actionEnv) *walUnit {
	if env.txn != nil {
		if env.txn.wal == nil {
			env.txn.wal = &walUnit{}
		}
		return env.txn.wal
	}
	return env.unit
}

// bufferDML queues applied row changes on the current unit.
func (e *Engine) bufferDML(env *actionEnv, meta *catalog.TableMeta, applied []change) {
	if e.wal == nil || len(applied) == 0 {
		return
	}
	u := e.unitOf(env)
	for _, c := range applied {
		var op wal.Op
		switch {
		case c.old == nil:
			op = wal.Op{Kind: wal.OpInsert, Table: meta.Name, New: c.new}
		case c.new == nil:
			op = wal.Op{Kind: wal.OpDelete, Table: meta.Name, Old: c.old}
		default:
			op = wal.Op{Kind: wal.OpUpdate, Table: meta.Name, Old: c.old, New: c.new}
		}
		if u != nil {
			u.ops = append(u.ops, op)
		} else if err := e.wal.AppendCommit([]wal.Op{op}); err != nil {
			// No unit means a path outside execStmt; log standalone. An
			// append failure here surfaces on the next flush instead.
			e.Logger().Error("wal append failed", "table", meta.Name, "err", err)
		}
	}
}

// bufferDDL queues a successfully executed DDL statement, rendered
// canonically (the caller's sql text may be a whole script).
func (e *Engine) bufferDDL(env *actionEnv, stmt ast.Stmt) {
	if e.wal == nil {
		return
	}
	ddl := renderDDL(stmt)
	if ddl == "" {
		return
	}
	op := wal.Op{Kind: wal.OpDDL, SQL: ddl}
	if u := e.unitOf(env); u != nil {
		u.ops = append(u.ops, op)
		return
	}
	if err := e.wal.AppendCommit([]wal.Op{op}); err != nil {
		e.Logger().Error("wal append failed", "ddl", ddl, "err", err)
	}
}

// flushUnit appends the unit's buffered ops as one commit record and
// empties it. Flushed even when the statement errored: without a
// transaction there is no undo, so whatever was applied stays in
// memory and must stay in the log too.
func (e *Engine) flushUnit(u *walUnit) error {
	if e.wal == nil || u == nil || len(u.ops) == 0 {
		return nil
	}
	ops := u.ops
	u.ops = nil
	if err := e.wal.AppendCommit(ops); err != nil {
		return fmt.Errorf("wal commit: %w", err)
	}
	return nil
}

// Checkpoint snapshots the database via the WAL manager, anchoring
// the audit chain and truncating covered data segments. It excludes
// all commit activity for the duration (see the lock-order comment at
// the top of this file).
func (e *Engine) Checkpoint() error {
	if e.wal == nil {
		return fmt.Errorf("durability is not enabled")
	}
	e.ckptMu.Lock()
	defer e.ckptMu.Unlock()
	e.dmlMu.Lock()
	defer e.dmlMu.Unlock()
	return e.wal.Checkpoint(e.dumpLocked)
}

// VerifyAuditLog re-reads the on-disk audit trail and checks the hash
// chain, the live head, and the latest checkpoint anchor.
func (e *Engine) VerifyAuditLog() (*wal.VerifyReport, error) {
	if e.wal == nil {
		return nil, fmt.Errorf("durability is not enabled")
	}
	return e.wal.VerifyAudit()
}

// runVerifyAuditLog serves the VERIFY AUDIT LOG statement.
func (e *Engine) runVerifyAuditLog() (*Result, error) {
	rep, err := e.VerifyAuditLog()
	if err != nil {
		return nil, err
	}
	valid := value.Value{Kind: value.KindBool}
	if rep.Valid {
		valid.I = 1
	}
	return &Result{
		Columns: []string{"valid", "records", "head", "reason"},
		Rows: []value.Row{{
			valid,
			value.Value{Kind: value.KindInt, I: int64(rep.Records)},
			value.NewString(rep.HeadHex),
			value.NewString(rep.Reason),
		}},
	}, nil
}

// renderDDL emits canonical single-statement DDL for logging, or ""
// for statements that are not DDL.
func renderDDL(stmt ast.Stmt) string {
	switch s := stmt.(type) {
	case *ast.CreateTable:
		var cols []string
		inlinePK := len(s.PrimaryKey) == 0
		for _, c := range s.Columns {
			def := fmt.Sprintf("%s %s", c.Name, c.Type)
			if inlinePK && c.PrimaryKey {
				def += " PRIMARY KEY"
			}
			cols = append(cols, def)
		}
		if len(s.PrimaryKey) > 0 {
			cols = append(cols, "PRIMARY KEY ("+strings.Join(s.PrimaryKey, ", ")+")")
		}
		return fmt.Sprintf("CREATE TABLE %s (%s)", s.Name, strings.Join(cols, ", "))
	case *ast.CreateIndex:
		return fmt.Sprintf("CREATE INDEX %s ON %s (%s)", s.Name, s.Table, strings.Join(s.Columns, ", "))
	case *ast.CreateView:
		return fmt.Sprintf("CREATE VIEW %s AS %s", s.Name, ast.RenderSelect(s.Query))
	case *ast.CreateAuditExpression:
		return ast.RenderAuditExpression(s)
	case *ast.CreateTrigger:
		switch s.Event {
		case ast.EventAccess:
			return fmt.Sprintf("CREATE TRIGGER %s ON ACCESS TO %s AS %s", s.Name, s.Target, s.ActionSQL)
		case ast.EventInsert:
			return fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER INSERT AS %s", s.Name, s.Target, s.ActionSQL)
		case ast.EventUpdate:
			return fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER UPDATE AS %s", s.Name, s.Target, s.ActionSQL)
		case ast.EventDelete:
			return fmt.Sprintf("CREATE TRIGGER %s ON %s AFTER DELETE AS %s", s.Name, s.Target, s.ActionSQL)
		}
		return ""
	case *ast.DropTable:
		return "DROP TABLE " + s.Name
	case *ast.DropIndex:
		return "DROP INDEX " + s.Name
	case *ast.DropView:
		return "DROP VIEW " + s.Name
	case *ast.DropTrigger:
		return "DROP TRIGGER " + s.Name
	case *ast.DropAuditExpression:
		return "DROP AUDIT EXPRESSION " + s.Name
	default:
		return ""
	}
}

// Dump serializes the whole database as a replayable SQL script,
// holding the writer lock so the snapshot is transactionally
// consistent (a dump can no longer interleave with concurrent DML).
func (e *Engine) Dump(w io.Writer) error {
	e.dmlMu.Lock()
	defer e.dmlMu.Unlock()
	return e.dumpLocked(w)
}
