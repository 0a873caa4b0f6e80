package engine

import (
	"fmt"

	"auditdb/internal/ast"
	"auditdb/internal/parser"
	"auditdb/internal/triage"
	"auditdb/internal/wal"
)

// Txn is an explicit transaction: the engine's writer lock is held for
// its whole lifetime (other writers block; readers continue against
// snapshots and see the transaction's changes immediately —
// read-uncommitted visibility). Rollback undoes every row change the
// transaction applied, including changes made by triggers it fired,
// and re-materializes the audit-expression ID sets.
type Txn struct {
	e *Engine
	// sess attributes the transaction's statements (USERID() in trigger
	// actions) and holds their statement records.
	sess *Session
	undo []change
	// wal buffers the transaction's operations (created lazily); Commit
	// appends them as one record before releasing the writer lock, so a
	// checkpoint acquiring it afterwards always sees the record in a
	// segment its snapshot covers.
	wal  *walUnit
	done bool
	// pendTriage buffers triage events from SELECT-trigger firings
	// inside the transaction: enqueued on Commit, discarded on Rollback
	// — a rolled-back read must not leave verification work behind
	// (the audit records themselves survive rollback regardless).
	pendTriage []triage.Event
}

// Begin opens a transaction under the default session, blocking until
// any other writer or transaction finishes. Every Txn must end in
// Commit or Rollback. Use Session.Begin for per-user attribution.
func (e *Engine) Begin() *Txn {
	e.dmlMu.Lock()
	return &Txn{e: e, sess: e.defSess}
}

// Exec runs one statement inside the transaction.
func (t *Txn) Exec(sql string) (*Result, error) {
	return t.e.traced(t.sess, sql, func() (*Result, error) {
		if t.done {
			return nil, fmt.Errorf("transaction already finished")
		}
		stmt, err := parseTimed(&t.sess.rec, sql, parser.Parse)
		if err != nil {
			return nil, err
		}
		switch stmt.(type) {
		case *ast.TxBegin, *ast.TxCommit, *ast.TxRollback:
			return nil, fmt.Errorf("nested transaction control inside Txn.Exec; use Commit/Rollback")
		}
		env := t.sess.rootEnv()
		env.txn = t
		return t.e.execStmt(stmt, sql, env)
	})
}

// Query runs a SELECT inside the transaction (audited as usual).
func (t *Txn) Query(sql string) (*Result, error) { return t.Exec(sql) }

// Commit makes the transaction's changes permanent — durably, when a
// WAL is attached: the commit record (trigger-cascade writes
// included) is appended and group-committed before the writer lock is
// released.
func (t *Txn) Commit() error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	t.done = true
	t.undo = nil
	var err error
	if t.wal != nil {
		err = t.e.flushUnit(t.wal)
		t.wal = nil
	}
	t.e.dmlMu.Unlock()
	// Deferred triage events flow to the queue only now that the
	// transaction's reads are committed history; enqueue outside the
	// writer lock (lock order: dmlMu is never held into triage's mutex).
	for _, ev := range t.pendTriage {
		t.e.triage.Enqueue(ev)
	}
	t.pendTriage = nil
	return err
}

// Rollback undoes the transaction's changes (reverse order), restores
// the audit-expression ID sets, and releases the writer lock. DDL is
// not undone by rollback in this engine, so any DDL the transaction
// ran is still logged (DML ops are discarded with the rollback).
func (t *Txn) Rollback() error {
	if t.done {
		return fmt.Errorf("transaction already finished")
	}
	t.done = true
	undo(t.undo)
	t.undo = nil
	t.pendTriage = nil // rolled-back reads leave no verification work
	var walErr error
	if t.wal != nil {
		n := 0
		for _, op := range t.wal.ops {
			if op.Kind == wal.OpDDL {
				t.wal.ops[n] = op
				n++
			}
		}
		t.wal.ops = t.wal.ops[:n]
		walErr = t.e.flushUnit(t.wal)
		t.wal = nil
	}
	err := t.e.reg.RefreshAll()
	t.e.dmlMu.Unlock()
	if err != nil {
		return err
	}
	return walErr
}

// record registers applied changes for rollback.
func (t *Txn) record(applied []change) {
	t.undo = append(t.undo, applied...)
}

// runTxControl supports SQL-level BEGIN/COMMIT/ROLLBACK through
// Exec/ExecScript. SQL transactions are per-session (one open at a
// time per session); a COMMIT or ROLLBACK on a session that holds no
// transaction fails cleanly and never touches another session's
// transaction, so interleaved transaction control from concurrent
// connections cannot corrupt state.
func (e *Engine) runTxControl(stmt ast.Stmt, env *actionEnv) (*Result, error) {
	if env.depth > 0 {
		return nil, fmt.Errorf("transaction control is not allowed inside trigger actions")
	}
	s := e.sessionOf(env)
	switch stmt.(type) {
	case *ast.TxBegin:
		s.lock()
		if s.txn != nil {
			s.unlock()
			return nil, fmt.Errorf("a transaction is already open")
		}
		s.unlock()
		// Begin blocks on the writer lock; take it outside the session
		// lock so Close (e.g. a dropped connection) stays responsive.
		txn := s.Begin()
		s.lock()
		if s.closed {
			s.unlock()
			txn.Rollback()
			return nil, fmt.Errorf("session is closed")
		}
		s.txn = txn
		s.unlock()
		return &Result{}, nil
	case *ast.TxCommit:
		s.lock()
		txn := s.txn
		s.txn = nil
		s.unlock()
		if txn == nil {
			return nil, fmt.Errorf("no open transaction")
		}
		return &Result{}, txn.Commit()
	case *ast.TxRollback:
		s.lock()
		txn := s.txn
		s.txn = nil
		s.unlock()
		if txn == nil {
			return nil, fmt.Errorf("no open transaction")
		}
		return &Result{}, txn.Rollback()
	}
	return nil, fmt.Errorf("not a transaction-control statement")
}
