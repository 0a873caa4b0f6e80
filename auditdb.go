// Package auditdb is an embeddable, in-memory SQL database with
// row-level auditing of SELECT queries — a from-scratch Go
// reproduction of "SELECT Triggers For Data Auditing" (Fabbri,
// Ramamurthy, Kaushik; ICDE 2013).
//
// Beyond a conventional SQL engine (joins, aggregates, subqueries,
// DML, classic AFTER triggers), it supports the paper's auditing DDL:
//
//	CREATE AUDIT EXPRESSION Audit_Alice AS
//	    SELECT * FROM Patients WHERE Name = 'Alice'
//	    FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
//
//	CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
//	    INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
//
// Every SELECT (including those inside trigger actions) is then
// instrumented with audit operators — no-op probes placed by the
// paper's highest-commutative-node algorithm — and when a query
// accesses a sensitive row, the trigger's action runs with the
// ACCESSED internal state bound to the recorded partition keys.
//
// Guarantees follow the paper: no false negatives for any SQL query,
// and no false positives for select-join queries; an exact offline
// auditor (package auditdb/internal/offline, surfaced here as
// DB.OfflineAudit) verifies the remainder.
package auditdb

import (
	"context"
	"fmt"
	"io"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/offline"
	"auditdb/internal/value"
)

// Placement selects the audit-operator placement heuristic.
type Placement = core.Heuristic

// Placement heuristics (§III-C of the paper).
const (
	// PlacementLeafNode audits at the sensitive table's scans: never a
	// false negative, many false positives.
	PlacementLeafNode = core.LeafNode
	// PlacementHighestNode audits at the highest edge exposing the
	// partition key: fewest false positives but unsound (can miss
	// accesses); provided for comparison only.
	PlacementHighestNode = core.HighestNode
	// PlacementHCN is the paper's highest-commutative-node algorithm
	// and the default.
	PlacementHCN = core.HighestCommutativeNode
)

// Value is a SQL scalar value.
type Value = value.Value

// Row is a result tuple.
type Row = value.Row

// Result is the outcome of a statement: query rows, DML counts, and —
// for audited SELECTs — the ACCESSED state per audit expression.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int
	accessed     *core.Accessed
}

// AccessedIDs returns the partition-by keys recorded for the named
// audit expression during this query, sorted. Empty when the statement
// was not an audited SELECT.
func (r *Result) AccessedIDs(auditExpr string) []Value {
	if r.accessed == nil {
		return nil
	}
	return r.accessed.IDs(auditExpr)
}

// AccessedCount returns len(AccessedIDs(auditExpr)) without copying.
func (r *Result) AccessedCount(auditExpr string) int {
	if r.accessed == nil {
		return 0
	}
	return r.accessed.Len(auditExpr)
}

// AuditedExpressions lists the audit expressions with at least one
// recorded access for this query.
func (r *Result) AuditedExpressions() []string {
	if r.accessed == nil {
		return nil
	}
	return r.accessed.Expressions()
}

// DB is one in-memory database with SELECT-trigger auditing. A DB is a
// thin wrapper over the engine's default session; for concurrent
// multi-user access open one Session per user (or run the auditdbd
// network server, which does so per connection).
type DB struct {
	eng *engine.Engine
}

// Open creates an empty database with the default (HCN) placement.
func Open() *DB {
	return &DB{eng: engine.New()}
}

// Session is one user's execution context over a shared database:
// per-session USERID() identity, audit-all flag, placement heuristic,
// and SQL-level transaction. Sessions are safe to use concurrently
// with each other (a single Session is not goroutine-safe, like
// database/sql.Conn); trigger actions fired by a session's queries
// attribute the access to that session's user.
type Session struct {
	s *engine.Session
}

// NewSession opens an independent session seeded from the database's
// current settings.
func (db *DB) NewSession() *Session { return &Session{s: db.eng.NewSession()} }

// Exec parses and executes one SQL statement under this session.
func (s *Session) Exec(sql string) (*Result, error) {
	r, err := s.s.Exec(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// ExecScript executes a semicolon-separated script under this session.
func (s *Session) ExecScript(sql string) (*Result, error) {
	r, err := s.s.ExecScript(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// Query executes an audited SELECT under this session.
func (s *Session) Query(sql string) (*Result, error) {
	r, err := s.s.Query(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// SetUser sets the identity reported by userid() for this session.
func (s *Session) SetUser(u string) { s.s.SetUser(u) }

// User returns the session's current identity.
func (s *Session) User() string { return s.s.User() }

// SetAuditAll toggles audit-all instrumentation for this session only.
func (s *Session) SetAuditAll(on bool) { s.s.SetAuditAll(on) }

// SetPlacement selects this session's audit-operator placement
// heuristic.
func (s *Session) SetPlacement(p Placement) { s.s.SetHeuristic(p) }

// Prepare parses a ?-parameterized statement bound to this session.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	p, err := s.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// Begin opens a transaction attributed to this session, blocking until
// other writers finish.
func (s *Session) Begin() *Tx { return &Tx{t: s.s.Begin()} }

// Close ends the session, rolling back any open SQL-level transaction.
func (s *Session) Close() error { return s.s.Close() }

// Exec parses and executes one SQL statement (DDL, DML, query, or
// auditing DDL).
func (db *DB) Exec(sql string) (*Result, error) {
	r, err := db.eng.Exec(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// ExecScript executes a semicolon-separated script and returns the
// last statement's result.
func (db *DB) ExecScript(sql string) (*Result, error) {
	r, err := db.eng.ExecScript(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// Query executes a SELECT. If audit expressions with ON ACCESS
// triggers exist (or AuditAll is on), the plan is instrumented and
// triggers fire after the query completes.
func (db *DB) Query(sql string) (*Result, error) {
	r, err := db.eng.Query(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

func wrap(r *engine.Result) *Result {
	return &Result{
		Columns:      r.Columns,
		Rows:         r.Rows,
		RowsAffected: r.RowsAffected,
		accessed:     r.Accessed,
	}
}

// SetUser sets the session user reported by userid() and recorded by
// logging trigger actions.
func (db *DB) SetUser(u string) { db.eng.SetUser(u) }

// SetPlacement selects the audit-operator placement heuristic for
// subsequent queries.
func (db *DB) SetPlacement(p Placement) { db.eng.SetHeuristic(p) }

// SetAuditAll instruments every query for every audit expression even
// without triggers; Result.AccessedIDs then exposes the ACCESSED
// state directly. Useful for monitoring dashboards and benchmarks.
func (db *DB) SetAuditAll(on bool) { db.eng.SetAuditAll(on) }

// OnNotify installs the callback for NOTIFY trigger actions (the
// paper's SEND EMAIL).
func (db *DB) OnNotify(fn func(msg string)) { db.eng.OnNotify(fn) }

// AccessEvent reports one query's accesses to one audit expression in
// real time (before query results are returned to the caller).
type AccessEvent = engine.AccessEvent

// OnAccess installs a real-time access callback: it fires for every
// audited SELECT that touched sensitive data, carrying the user, the
// SQL text and the accessed partition keys. This is the paper's
// "immediate feedback" scenario (§I) without declaring any trigger.
func (db *DB) OnAccess(fn func(ev AccessEvent)) { db.eng.OnAccess(fn) }

// Explain returns the query's execution plan as an indented tree;
// instrumented plans include the audit operators at their placed
// positions.
func (db *DB) Explain(sql string, instrumented bool) (string, error) {
	return db.eng.Explain(sql, instrumented)
}

// ExplainAnalyze executes the query for real with every operator
// instrumented and returns the plan annotated with observed rows,
// batches, wall time, and audit-probe counts. It is side-effect-free
// with respect to auditing: no trigger fires and no ACCESSED state is
// recorded.
func (db *DB) ExplainAnalyze(sql string) (string, error) {
	return db.eng.ExplainAnalyze(sql)
}

// OfflineReport is the exact (Definition 2.5) audit of one query:
// AccessedIDs is ground truth, the sensitive partition keys whose
// tuples influence the query result. The rest says how it was reached
// and what it cost — Candidates observed by the audit's one
// instrumented run, Decided of them by lineage alone, DeletionTests of
// them by re-running the query with the tuple hidden (DeferReasons
// says why), over Executions runs of the query reading RowsScanned
// storage rows.
type OfflineReport = offline.Report

// OfflineAudit runs the exact offline auditor for a query against an
// audit expression: one instrumented run decides every verdict the
// plan's shape allows (select-join blocks, COUNT(*) aggregates), and
// tuple-deletion re-execution settles the rest, with candidates pruned
// to the leaf-node superset. This is the verifier the paper pairs with
// SELECT triggers (Figure 1).
func (db *DB) OfflineAudit(sql, auditExpr string) (*OfflineReport, error) {
	ae, ok := db.eng.Registry().Get(auditExpr)
	if !ok {
		return nil, fmt.Errorf("unknown audit expression %q", auditExpr)
	}
	return db.eng.OfflineAudit(context.Background(), sql, ae, 0)
}

// AuditExpressionCardinality returns the current size of an audit
// expression's materialized sensitive-ID set.
func (db *DB) AuditExpressionCardinality(name string) (int, error) {
	ae, ok := db.eng.Registry().Get(name)
	if !ok {
		return 0, fmt.Errorf("unknown audit expression %q", name)
	}
	return ae.Cardinality(), nil
}

// Tx is an explicit transaction. The database's writer lock is held
// until Commit or Rollback; rollback undoes every row change the
// transaction (and any triggers it fired) applied and restores the
// audit-expression ID sets. SQL-level BEGIN/COMMIT/ROLLBACK through
// Exec work too and share the same machinery.
type Tx struct {
	t *engine.Txn
}

// Begin opens a transaction, blocking until other writers finish.
func (db *DB) Begin() *Tx { return &Tx{t: db.eng.Begin()} }

// Exec runs a statement inside the transaction.
func (tx *Tx) Exec(sql string) (*Result, error) {
	r, err := tx.t.Exec(sql)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

// Query runs an audited SELECT inside the transaction.
func (tx *Tx) Query(sql string) (*Result, error) { return tx.Exec(sql) }

// Commit makes the transaction's changes permanent.
func (tx *Tx) Commit() error { return tx.t.Commit() }

// Rollback undoes the transaction's changes.
func (tx *Tx) Rollback() error { return tx.t.Rollback() }

// Stmt is a prepared statement with positional ? parameters. Parsing
// happens once; planning reflects the current catalog and audit
// configuration each run.
type Stmt struct {
	p *engine.Prepared
}

// Prepare parses a statement containing ? placeholders for repeated
// execution, e.g. db.Prepare("SELECT * FROM Patients WHERE Zip = ?").
func (db *DB) Prepare(sql string) (*Stmt, error) {
	p, err := db.eng.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{p: p}, nil
}

// NumParams reports how many ? placeholders the statement declares.
func (s *Stmt) NumParams() int { return s.p.NumParams() }

// Run executes the statement, binding Go values to the placeholders in
// order. Supported types: nil, bool, int, int64, float64, string, and
// Value.
func (s *Stmt) Run(args ...any) (*Result, error) {
	params := make([]Value, len(args))
	for i, a := range args {
		v, err := toValue(a)
		if err != nil {
			return nil, fmt.Errorf("parameter %d: %w", i+1, err)
		}
		params[i] = v
	}
	r, err := s.p.Run(params...)
	if err != nil {
		return nil, err
	}
	return wrap(r), nil
}

func toValue(a any) (Value, error) {
	switch x := a.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(x), nil
	case int:
		return value.NewInt(int64(x)), nil
	case int64:
		return value.NewInt(x), nil
	case float64:
		return value.NewFloat(x), nil
	case string:
		return value.NewString(x), nil
	case Value:
		return x, nil
	default:
		return value.Null, fmt.Errorf("unsupported parameter type %T", a)
	}
}

// Save serializes the database (schema, rows, indexes, audit
// expressions, triggers) as a SQL script that Restore replays.
func (db *DB) Save(w io.Writer) error { return db.eng.Dump(w) }

// Restore loads a database previously written by Save. Audit
// expressions re-materialize their ID sets from the restored rows, so
// auditing resumes exactly where it left off.
func Restore(r io.Reader) (*DB, error) {
	script, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	db := Open()
	if _, err := db.ExecScript(string(script)); err != nil {
		return nil, fmt.Errorf("restore: %w", err)
	}
	return db, nil
}

// Stats returns engine activity counters (queries, statements,
// triggers fired, notifications, rows audited).
func (db *DB) Stats() map[string]int64 { return db.eng.StatsSnapshot() }

// Engine exposes the underlying engine for advanced integrations
// (workload generators, the experiment harness).
func (db *DB) Engine() *engine.Engine { return db.eng }
