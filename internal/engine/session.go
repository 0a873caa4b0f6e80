package engine

import (
	"fmt"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/lexer"
	"auditdb/internal/parser"
	"auditdb/internal/trace"
	"auditdb/internal/value"
)

// Session is one user's execution context against a shared Engine: it
// carries the identity reported by USERID(), the audit-all flag, the
// other per-session settings (settings.go), and the session's open
// SQL-level transaction. Audit-operator placement and triage are not
// among them: they are engine properties, so the audited party cannot
// switch off its own audit. Concurrent sessions over one engine are
// independent — trigger actions fired by a session's queries resolve
// USERID() and sqltext() from that session, never from another one (the
// paper's §II multi-user attribution requirement).
//
// A Session is cheap; servers create one per connection. Like
// database/sql.Conn, a single Session must not be used from multiple
// goroutines at once — different Sessions are safe concurrently.
type Session struct {
	e *Engine

	mu       chan struct{} // 1-token semaphore guarding the fields below
	user     string
	auditAll bool
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

	// skipOff is the SET skipping = off flag: this session's scans
	// read every chunk instead of pruning against zone maps and
	// sensitive-ID sketches. Default off (skipping on) — the escape
	// hatch exists to measure and to rule skipping out when debugging.
	skipOff bool

	// traceOn is the SET trace = on flag; pendProto/pendRead hold the
	// front end's transport-read note for the next front-door call. All
	// three are guarded by mu because protocol front ends may note the
	// read from a connection goroutine before handing off to the
	// statement path.
	traceOn   bool
	pendProto string
	pendRead  time.Duration

	// rec is the statement record, the only per-statement clock: the
	// front doors (Exec, Query, ExecMulti, Prepared.Run, Txn.Exec) open
	// it before any work and traceFinish closes it. recScanned,
	// recAudited and recPlacement carry the slow-query log's fields,
	// summed over the statement and its nested ones (recPlacement is the
	// most conservative outcome). Like norm, all four are touched only
	// from the session's own statement path.
	rec          trace.Rec
	recScanned   int64
	recAudited   int64
	recPlacement string
}

func newSession(e *Engine, user string, auditAll bool) *Session {
	s := &Session{e: e, mu: make(chan struct{}, 1), user: user, auditAll: auditAll}
	e.stats.Sessions.Add(1)
	return s
}

// NewSession creates an independent session seeded from the engine's
// current default-session settings (user, audit-all, workers,
// skipping).
func (e *Engine) NewSession() *Session {
	d := e.defSess
	d.lock()
	user, auditAll, workers, skipOff := d.user, d.auditAll, d.workers, d.skipOff
	d.unlock()
	s := newSession(e, user, auditAll)
	s.workers = workers
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
// the request about to execute. The next front-door call consumes it —
// refused calls included — and charges it to the transport phase. Front
// ends call it just before handing the statement to the engine.
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
func (s *Session) Exec(sql string) (*Result, error) { return runText(s, sql, parser.Parse) }

// Query parses and executes a SELECT under this session. Like Exec,
// the warm path normalizes instead of parsing and serves the plan from
// the two-level cache.
func (s *Session) Query(sql string) (*Result, error) { return runText(s, sql, parser.ParseQuery) }

// runText is the front door of Exec and Query: open the statement
// record, offer the text to the pre-parse fast path, and otherwise
// parse it with parse and execute it.
func runText[T ast.Stmt](s *Session, sql string, parse func(string) (T, error)) (*Result, error) {
	return s.e.traced(s, sql, func() (*Result, error) {
		if err := s.checkOpen(); err != nil {
			return nil, err
		}
		env := s.rootEnv()
		if res, ok, err := s.e.runCanonSelect(sql, nil, env, true); ok {
			return res, err
		}
		stmt, err := parseTimed(&s.rec, sql, parse)
		if err != nil {
			return nil, err
		}
		return s.e.execStmt(stmt, sql, env)
	})
}

// parseTimed runs one of the parser's entry points and charges it to
// the statement record's parse phase.
func parseTimed[T any](r *trace.Rec, sql string, parse func(string) (T, error)) (T, error) {
	start := time.Now()
	v, err := parse(sql)
	charge(r, trace.PhaseParse, "parse", start, time.Since(start))
	return v, err
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
//
// Each statement gets its own record; the first one's also covers the
// script parse.
func (s *Session) ExecMulti(sql string, fn func(stmt ast.Stmt, res *Result, err error) bool) error {
	e := s.e
	began := e.traceBegin(s)
	err := s.checkOpen()
	var stmts []ast.Stmt
	if err == nil {
		stmts, err = parseTimed(&s.rec, sql, parser.ParseScript)
	}
	if err != nil {
		if began {
			e.traceFinish(s, sql, nil, err)
		}
		return err
	}
	for i, st := range stmts {
		if i > 0 {
			began = e.traceBegin(s)
		}
		r, err := e.execStmt(st, sql, s.rootEnv())
		if began {
			e.traceFinish(s, sql, r, err)
		}
		if !fn(st, r, err) {
			return nil
		}
	}
	return nil
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
