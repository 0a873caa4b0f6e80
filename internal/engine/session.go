package engine

import (
	"fmt"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/core"
	"auditdb/internal/lexer"
	"auditdb/internal/parser"
	"auditdb/internal/trace"
	"auditdb/internal/value"
)

// Session is one user's execution context against a shared Engine: it
// carries the identity reported by USERID(), the audit-all flag, the
// audit-operator placement heuristic, and the session's open SQL-level
// transaction. Concurrent sessions over one engine are independent —
// trigger actions fired by a session's queries resolve USERID() and
// sqltext() from that session, never from another one (the paper's §II
// multi-user attribution requirement).
//
// A Session is cheap; servers create one per connection. Like
// database/sql.Conn, a single Session must not be used from multiple
// goroutines at once — different Sessions are safe concurrently.
type Session struct {
	e *Engine

	mu        chan struct{} // 1-token semaphore guarding the fields below
	user      string
	auditAll  bool
	heuristic core.Heuristic
	// workers is this session's SET WORKERS override for parallel
	// query execution; 0 means inherit the engine default.
	workers int
	// canonCache is the session's L1 in front of the engine-wide shared
	// plan cache, keyed by canonical (auto-parameterized) text.
	canonCache map[string]*planEntry
	// paramScratch is the reusable per-execution slot-binding vector.
	paramScratch []value.Value
	txn          *Txn // open SQL-level BEGIN ... COMMIT/ROLLBACK transaction
	closed       bool

	// norm is the session's normalization scratch. It is used only from
	// the session's own statement path (single goroutine by contract),
	// never from trigger cascades, which run at depth > 0.
	norm lexer.Norm

	// triageOff is the SET triage = off flag: it gates this session's
	// firings out of the triage queue without touching the engine-wide
	// service. Default off (triage on) — the service itself is disabled
	// unless ConfigureTriage armed workers.
	triageOff bool

	// skipOff is the SET skipping = off flag: this session's scans
	// read every chunk instead of pruning against zone maps and
	// sensitive-ID sketches. Default off (skipping on) — the escape
	// hatch exists to measure and to rule skipping out when debugging.
	skipOff bool

	// traceOn is the SET trace = on flag; pendProto/pendRead stage the
	// front end's transport-read note for the next statement. All three
	// are guarded by mu because protocol front ends may note the read
	// from a connection goroutine before handing off to the statement
	// path.
	traceOn   bool
	pendProto string
	pendRead  time.Duration

	// rec is the statement trace recorder; like norm, it and the
	// pend* staging fields below are touched only from the session's
	// own statement path. They stage work measured before the recorder
	// begins (normalize, parse, plan-cache adoption) for traceBegin to
	// consume.
	rec           trace.Rec
	pendNorm      time.Duration
	pendParse     time.Duration
	pendPlanSrc   string
	pendPlanNanos int64
}

func newSession(e *Engine, user string, auditAll bool, h core.Heuristic) *Session {
	s := &Session{e: e, mu: make(chan struct{}, 1), user: user, auditAll: auditAll, heuristic: h}
	e.stats.Sessions.Add(1)
	return s
}

// NewSession creates an independent session seeded from the engine's
// current default-session settings (user, audit-all, placement).
func (e *Engine) NewSession() *Session {
	d := e.defSess
	d.lock()
	user, auditAll, h, workers, triageOff, skipOff := d.user, d.auditAll, d.heuristic, d.workers, d.triageOff, d.skipOff
	d.unlock()
	s := newSession(e, user, auditAll, h)
	s.workers = workers
	s.triageOff = triageOff
	s.skipOff = skipOff
	return s
}

// DefaultSession returns the engine's built-in session, the one
// Engine.Exec/Query and the embeddable auditdb.DB API run under.
func (e *Engine) DefaultSession() *Session { return e.defSess }

func (s *Session) lock()   { s.mu <- struct{}{} }
func (s *Session) unlock() { <-s.mu }

// Engine returns the engine this session executes against.
func (s *Session) Engine() *Engine { return s.e }

// SetUser sets the identity reported by USERID() for this session.
func (s *Session) SetUser(u string) {
	s.lock()
	s.user = u
	s.unlock()
}

// User returns the session's current identity.
func (s *Session) User() string {
	s.lock()
	defer s.unlock()
	return s.user
}

// SetAuditAll makes every SELECT this session runs instrumented for
// every compiled audit expression, even those without ON ACCESS
// triggers.
func (s *Session) SetAuditAll(on bool) {
	s.lock()
	s.auditAll = on
	s.unlock()
}

// AuditAll reports whether audit-all mode is on for this session.
func (s *Session) AuditAll() bool {
	s.lock()
	defer s.unlock()
	return s.auditAll
}

// SetHeuristic selects the audit-operator placement algorithm for this
// session's queries.
func (s *Session) SetHeuristic(h core.Heuristic) {
	s.lock()
	s.heuristic = h
	s.unlock()
}

// Heuristic returns the session's active placement algorithm.
func (s *Session) Heuristic() core.Heuristic {
	s.lock()
	defer s.unlock()
	return s.heuristic
}

// SetWorkers sets this session's worker budget for parallel query
// execution (SET WORKERS). 1 forces serial execution; 0 resets to the
// engine default; negatives clamp to serial.
func (s *Session) SetWorkers(n int) {
	if n < 0 {
		n = 1
	}
	s.lock()
	s.workers = n
	s.unlock()
}

// Workers returns the session's worker budget; 0 means the engine
// default applies.
func (s *Session) Workers() int {
	s.lock()
	defer s.unlock()
	return s.workers
}

// SetTrace forces full span capture for every statement this session
// runs (SET trace = on/off), independent of the engine's head-sampling
// rate.
func (s *Session) SetTrace(on bool) {
	s.lock()
	s.traceOn = on
	s.unlock()
}

// TraceOn reports whether per-session forced tracing is enabled.
func (s *Session) TraceOn() bool {
	s.lock()
	defer s.unlock()
	return s.traceOn
}

// SetTriage toggles triage enqueueing for this session's trigger
// firings (SET triage = on|off). It has no effect unless the engine's
// triage service is enabled.
func (s *Session) SetTriage(on bool) {
	s.lock()
	s.triageOff = !on
	s.unlock()
}

// TriageOn reports whether this session's firings enter the triage
// queue (when the engine's service is enabled).
func (s *Session) TriageOn() bool {
	s.lock()
	defer s.unlock()
	return !s.triageOff
}

// SetSkipping toggles chunk-level data skipping for this session's
// scans (SET skipping = on|off). Results and audit trails are
// byte-identical either way; off forces full scans.
func (s *Session) SetSkipping(on bool) {
	s.lock()
	s.skipOff = !on
	s.unlock()
}

// SkippingOn reports whether this session's scans may skip chunks.
func (s *Session) SkippingOn() bool {
	s.lock()
	defer s.unlock()
	return !s.skipOff
}

// NoteTransport records the protocol name and wire read/decode time of
// the request about to execute; the next statement's trace charges it
// to the transport phase. Front ends call it just before handing the
// statement to the engine.
func (s *Session) NoteTransport(proto string, d time.Duration) {
	s.lock()
	s.pendProto, s.pendRead = proto, d
	s.unlock()
}

// traceState atomically reads the forced-tracing flag and consumes the
// staged transport note.
func (s *Session) traceState() (on bool, proto string, read time.Duration) {
	s.lock()
	on, proto, read = s.traceOn, s.pendProto, s.pendRead
	s.pendProto, s.pendRead = "", 0
	s.unlock()
	return on, proto, read
}

// rootEnv builds the top-level action environment for a statement this
// session issues.
func (s *Session) rootEnv() *actionEnv { return &actionEnv{sess: s} }

func (s *Session) checkOpen() error {
	s.lock()
	defer s.unlock()
	if s.closed {
		return fmt.Errorf("session is closed")
	}
	return nil
}

// openTxn returns the session's open SQL-level transaction, if any.
func (s *Session) openTxn() *Txn {
	s.lock()
	defer s.unlock()
	return s.txn
}

// InTxn reports whether the session holds an open SQL-level
// transaction (BEGIN without a matching COMMIT/ROLLBACK yet). Protocol
// front ends use it for transaction-status reporting, e.g. the
// PostgreSQL ReadyForQuery status byte.
func (s *Session) InTxn() bool { return s.openTxn() != nil }

// Exec parses and executes a single statement under this session.
//
// Plain SELECTs skip parsing on the warm path: the text is normalized
// (literals auto-parameterized) in a single zero-allocation token scan
// and executed through the two-level plan cache; only statements the
// cache has never seen — or declines — are parsed.
func (s *Session) Exec(sql string) (*Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if res, ok, err := s.tryNormSelect(sql, nil); ok {
		return res, err
	}
	parseStart := time.Now()
	stmt, err := parser.Parse(sql)
	s.pendParse = time.Since(parseStart)
	s.e.parseSeconds.ObserveDuration(s.pendParse)
	if err != nil {
		return nil, err
	}
	return s.e.execStmt(stmt, sql, s.rootEnv())
}

// ExecScript executes a semicolon-separated script under this session,
// returning the last statement's result and stopping at the first error.
func (s *Session) ExecScript(sql string) (*Result, error) {
	var last *Result
	var runErr error
	err := s.ExecMulti(sql, func(_ ast.Stmt, r *Result, err error) bool {
		last, runErr = r, err
		return err == nil
	})
	if err == nil {
		err = runErr
	}
	if err != nil {
		return nil, err
	}
	return last, nil
}

// ExecMulti parses a semicolon-separated script and executes its
// statements one at a time, invoking fn after each with the statement
// and its result or execution error. fn returns false to stop early —
// protocol front ends use this to stream one response per statement
// and to halt at the first error, the way PostgreSQL's simple query
// protocol does. The full script text is what sqltext() reports inside
// trigger actions. A parse error is returned
// directly and fn is never called.
func (s *Session) ExecMulti(sql string, fn func(stmt ast.Stmt, res *Result, err error) bool) error {
	if err := s.checkOpen(); err != nil {
		return err
	}
	parseStart := time.Now()
	stmts, err := parser.ParseScript(sql)
	s.pendParse = time.Since(parseStart)
	s.e.parseSeconds.ObserveDuration(s.pendParse)
	if err != nil {
		return err
	}
	for _, st := range stmts {
		r, err := s.e.execStmt(st, sql, s.rootEnv())
		if !fn(st, r, err) {
			return nil
		}
	}
	return nil
}

// Query parses and executes a SELECT under this session. Like Exec,
// the warm path normalizes instead of parsing and serves the plan from
// the two-level cache.
func (s *Session) Query(sql string) (*Result, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	if res, ok, err := s.tryNormSelect(sql, nil); ok {
		return res, err
	}
	parseStart := time.Now()
	sel, err := parser.ParseQuery(sql)
	s.pendParse = time.Since(parseStart)
	s.e.parseSeconds.ObserveDuration(s.pendParse)
	if err != nil {
		return nil, err
	}
	return s.e.execStmt(sel, sql, s.rootEnv())
}

// Prepare parses a statement with ? placeholders for repeated
// execution under this session.
func (s *Session) Prepare(sql string) (*Prepared, error) {
	if err := s.checkOpen(); err != nil {
		return nil, err
	}
	return prepare(s, sql)
}

// Begin opens a programmatic transaction attributed to this session,
// blocking until other writers finish.
func (s *Session) Begin() *Txn {
	s.e.dmlMu.Lock()
	return &Txn{e: s.e, sess: s}
}

// Close ends the session. An open SQL-level transaction is rolled
// back (releasing the engine's writer lock — vital when a network
// connection drops mid-transaction). Further statements fail.
func (s *Session) Close() error {
	s.lock()
	if s.closed {
		s.unlock()
		return nil
	}
	s.closed = true
	txn := s.txn
	s.txn = nil
	s.unlock()
	if txn != nil {
		return txn.Rollback()
	}
	return nil
}

// sessionOf resolves the session an action environment executes under;
// environments created outside any explicit session (engine-internal
// re-planning, restore paths) run under the default session.
func (e *Engine) sessionOf(env *actionEnv) *Session {
	if env != nil && env.sess != nil {
		return env.sess
	}
	return e.defSess
}
