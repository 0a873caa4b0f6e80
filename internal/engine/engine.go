// Package engine is the database façade: it parses statements,
// dispatches DDL/DML/queries, instruments SELECT plans with audit
// operators (after logical optimization, like the paper's prototype,
// §IV-B), maintains materialized audit-expression ID sets under DML,
// and fires both classic DML triggers and the paper's SELECT triggers
// with their ACCESSED internal state.
package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/catalog"
	"auditdb/internal/core"
	"auditdb/internal/exec"
	"auditdb/internal/obs"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/trace"
	"auditdb/internal/triage"
	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// MaxCascadeDepth bounds trigger cascades (SELECT trigger actions can
// fire DML triggers whose bodies run audited SELECTs, §II).
const MaxCascadeDepth = 16

// Engine is one in-memory database instance with auditing support.
type Engine struct {
	cat   *catalog.Catalog
	store *storage.Store
	reg   *core.Registry

	// dmlMu serializes writers; readers run against storage snapshots.
	dmlMu sync.Mutex

	// wal enables durability when non-nil (set once via AttachWAL before
	// serving). ckptMu fences commits against checkpoints: autocommit
	// statements hold the read side from first write to WAL flush,
	// Checkpoint holds the write side. Lock order: ckptMu, then dmlMu.
	// See durability.go.
	wal    *wal.Manager
	ckptMu sync.RWMutex

	mu       sync.RWMutex
	notify   func(msg string)
	onAccess func(ev AccessEvent)
	triggers map[*catalog.TriggerMeta]*compiledTrigger
	views    map[string]*ast.Select

	// defSess is the built-in session Engine.Exec/Query run under; its
	// per-session state (user, audit-all, the other session settings,
	// open SQL transaction) used to be engine-global fields, which made
	// USERID() attribution wrong under concurrent users. NewSession
	// creates independent peers seeded from it.
	defSess *Session

	// heuristic is the audit-operator placement every session's plans
	// are instrumented under (a core.Heuristic). It is an engine
	// property, never a session one: Claim 3.6's no-false-negative
	// guarantee holds only under hcn, so the audited client must not be
	// able to choose another.
	heuristic atomic.Uint32

	// metrics is the engine's observability registry: every counter in
	// stats lives here, so the wire "stats" op (Snapshot) and the HTTP
	// /metrics endpoint (WritePrometheus) read the same atomics and can
	// never disagree.
	metrics *obs.Registry
	stats   counters
	// rowsAuditedByTable partitions the rows-audited counter by
	// sensitive table for the auditdb_rows_audited_total{table=...}
	// Prometheus family.
	rowsAuditedByTable *obs.CounterVec
	// Per-statement latency histograms (seconds), fed from the
	// statement record by traceFinish.
	parseSeconds, planSeconds, execSeconds, queryLatency *obs.Histogram

	// logger receives structured events (trigger firings, slow queries);
	// defaults to a discard handler. slowQueryNanos > 0 enables the
	// slow-query log for top-level statements at or above the threshold.
	logger         atomic.Pointer[slog.Logger]
	slowQueryNanos atomic.Int64

	// defaultWorkers is the per-query worker budget sessions inherit
	// when they have not run SET WORKERS. It defaults to 1 (serial);
	// auditdbd raises it to GOMAXPROCS via -workers. parallelMinRows is
	// the estimated driving-scan size below which opt.Parallelize
	// leaves a plan serial. ddlVersion increments on every successful
	// DDL statement and every placement change, and invalidates both
	// plan-cache levels.
	defaultWorkers  atomic.Int64
	parallelMinRows atomic.Int64
	ddlVersion      atomic.Int64
	// triggerSeq numbers CREATE TRIGGERs for their bodies' plan keys.
	triggerSeq atomic.Uint64
	// clock is what NOW() reads: time.Now, fixed by tests. Set before
	// the engine serves traffic.
	clock func() time.Time

	// Parallel-execution metrics (registered in initMetrics).
	execWorkers       *obs.Gauge
	morselsDispatched *obs.Counter
	parallelQueries   *obs.Counter
	planCacheHits     *obs.Counter

	// Data-skipping metrics: chunks read by scan kernels, and chunks
	// skipped by reason (filter = zone map refuted the pushed
	// predicate; audit = the sensitive-ID sketch refuted every probe).
	chunksScanned *obs.Counter
	chunksSkipped *obs.CounterVec

	// predInterpreted counts rows whose scan or filter predicate fell
	// back from the compiled fast path to the interpreter.
	predInterpreted *obs.Counter

	// auditProbes counts rows audit operators inspected, sketch-elided
	// probes included: the deterministic overhead metric (Figures 7/8).
	auditProbes *obs.Counter

	// sharedPlans is the engine-wide plan cache keyed by canonical
	// (auto-parameterized) statement text; session caches act as an L1
	// in front of it. See sharedcache.go and plancache.go.
	sharedPlans          sharedPlanCache
	sharedCacheHits      *obs.Counter
	sharedCacheMisses    *obs.Counter
	sharedCacheEvictions *obs.Counter

	// disablePlanCache turns off both cache levels and the normalized
	// fast path; tests use it to produce uncached reference executions.
	// Set before the engine serves traffic, never concurrently with it.
	disablePlanCache bool

	// Tracing. qidCtr issues the engine-unique 64-bit query IDs every
	// top-level statement gets; traceEvery is the head-sampling rate
	// (capture every nth statement, 0 = off); traceRing retains
	// finished traces for sys.traces, sys.spans and /traces.
	// See trace.go and internal/trace.
	qidCtr             atomic.Uint64
	traceEvery         atomic.Int64
	traceRing          *trace.Ring
	tracesSampled      *obs.Counter
	traceRingEvictions *obs.Counter

	// Audit triage (see internal/triage and triage.go): trigger firings
	// enter a bounded priority queue drained by background verification
	// workers. New() builds the service
	// disabled (no workers — the enqueue path is skipped entirely);
	// ConfigureTriage swaps in an enabled one. triageMetrics is
	// registered once in initMetrics and survives reconfiguration.
	triage        *triage.Service
	triageMetrics *triage.Metrics

	// Offline-audit metrics (OfflineAudit in triage.go): verdicts by the
	// path that reached them, query executions spent, and candidates
	// lineage could not decide, by reason.
	offlineVerdicts   *obs.CounterVec
	offlineExecutions *obs.Counter
	offlineDeferred   *obs.CounterVec
}

// counters count engine activity. Each field is a counter registered
// in the engine's obs.Registry, which supplies the Prometheus names and
// wire-stats aliases.
type counters struct {
	Queries       *obs.Counter
	Statements    *obs.Counter
	TriggersFired *obs.Counter
	Notifications *obs.Counter
	// RowsAudited aggregates across expressions; its Prometheus
	// identity is the per-table auditdb_rows_audited_total family, so
	// the aggregate itself is snapshot-only.
	RowsAudited *obs.Counter
	// RowsScanned counts heap/index rows the scan kernels read from
	// storage across all queries — the observable that streaming scans
	// with LIMIT do bounded work instead of materializing tables.
	RowsScanned *obs.Counter
	// Sessions counts sessions ever created (the default session
	// included).
	Sessions *obs.Counter
	// PlacementExact / PlacementConservative classify every
	// instrumented SELECT by audit-operator placement outcome: exact
	// when offline.Classify decides every target's ACCESSED set by
	// lineage under hcn placement (no false positives: Theorem 3.7 and
	// the COUNT(*) aggregate rule), conservative when some target's
	// operator may over-report (Example 3.8).
	PlacementExact        *obs.Counter
	PlacementConservative *obs.Counter
}

type compiledTrigger struct {
	body []ast.Stmt
	// plans maps each SELECT the body runs to the key of its plan in the
	// firing session's L1 (triggerPlanKeys).
	plans map[*ast.Select][]byte
}

// Result is the outcome of one statement.
type Result struct {
	// Columns names the output columns of a query.
	Columns []string
	// Kinds gives the declared value kind of each output column when
	// the planner knows it (len(Kinds) == len(Columns)); nil for
	// results whose schema is synthesized (EXPLAIN, VERIFY). Typed
	// wire protocols use it for result metadata.
	//
	// A SELECT's Columns and Kinds are computed once per compiled plan
	// and shared by every Result the plan produces: callers must not
	// modify them (none does).
	Kinds []value.Kind
	// Rows holds query output.
	Rows []value.Row
	// RowsAffected counts DML changes.
	RowsAffected int
	// Accessed is the query's ACCESSED state when the statement was an
	// audited SELECT; nil otherwise.
	Accessed *core.Accessed
	// QID is the query ID the tracer assigned to the statement; front
	// ends surface it so a trace can be looked up after the fact
	// (SELECT trace FROM sys.spans WHERE qid = <qid>). Zero for nested
	// statements, which execute inside their parent's trace.
	QID uint64
}

// New creates an empty engine.
func New() *Engine {
	cat := catalog.New()
	store := storage.NewStore()
	e := &Engine{
		cat:      cat,
		store:    store,
		reg:      core.NewRegistry(cat, store),
		triggers: make(map[*catalog.TriggerMeta]*compiledTrigger),
		views:    make(map[string]*ast.Select),
		clock:    time.Now,
	}
	e.traceRing = trace.NewRing(DefaultTraceRingCap)
	e.initMetrics()
	e.logger.Store(slog.New(discardHandler{}))
	e.defaultWorkers.Store(1)
	e.parallelMinRows.Store(DefaultParallelMinRows)
	e.execWorkers.Set(1)
	e.triage = triage.NewService(triage.Config{}, e.verifyTriageEvent, e.triageMetrics)
	e.heuristic.Store(uint32(core.HighestCommutativeNode))
	e.defSess = newSession(e, "system", false)
	return e
}

// initMetrics builds the obs registry and registers every engine
// metric. Counter aliases are the wire "stats" op's historical keys;
// Prometheus names follow the auditdb_ convention.
func (e *Engine) initMetrics() {
	r := obs.NewRegistry()
	e.metrics = r
	e.stats = counters{
		Queries:       r.NewCounter("auditdb_queries_total", "queries", "SELECT statements executed."),
		Statements:    r.NewCounter("auditdb_statements_total", "statements", "Statements of any kind executed."),
		TriggersFired: r.NewCounter("auditdb_triggers_fired_total", "triggers_fired", "Trigger actions fired (SELECT and DML triggers)."),
		Notifications: r.NewCounter("auditdb_notifications_total", "notifications", "NOTIFY actions delivered."),
		// Snapshot-only: the Prometheus identity of rows-audited is the
		// per-table family registered below.
		RowsAudited: r.NewCounter("", "rows_audited", ""),
		RowsScanned: r.NewCounter("auditdb_rows_scanned_total", "rows_scanned", "Heap and index rows read from storage."),
		Sessions:    r.NewCounter("auditdb_sessions_total", "sessions", "Sessions ever created, the default session included."),
		PlacementExact: r.NewCounter("auditdb_placement_exact_total", "placement_exact",
			"Instrumented SELECTs whose every ACCESSED set is the Def 2.3 answer (hcn placement on a shape the lineage rule decides, Theorem 3.7)."),
		PlacementConservative: r.NewCounter("auditdb_placement_conservative_total", "placement_conservative",
			"Instrumented SELECTs with an ACCESSED set that may over-report (a shape the lineage rule defers, or leaf/highest placement)."),
	}
	e.rowsAuditedByTable = r.NewCounterVec("auditdb_rows_audited_total", "rows_audited_by_table",
		"Distinct sensitive IDs recorded into ACCESSED, by sensitive table.", "table")
	e.parseSeconds = r.NewHistogram("auditdb_parse_seconds", "parse_seconds",
		"Normalize + parse phases of each top-level statement, in seconds.", obs.LatencyBuckets)
	e.planSeconds = r.NewHistogram("auditdb_plan_seconds", "plan_seconds",
		"Plan phase of each top-level statement (plan-cache lookup, or plan + optimize + instrument), in seconds.", obs.LatencyBuckets)
	e.execSeconds = r.NewHistogram("auditdb_exec_seconds", "exec_seconds",
		"Execute phase of each top-level statement, nested statements included, in seconds.", obs.LatencyBuckets)
	e.queryLatency = r.NewHistogram("auditdb_query_latency_seconds", "query_latency_seconds",
		"Elapsed time of each top-level statement's record, trigger firing and WAL commit included, in seconds.", obs.LatencyBuckets)
	r.NewUptimeGauge("auditdb_uptime_seconds", "uptime_seconds")
	e.execWorkers = r.NewGauge("auditdb_exec_workers", "exec_workers",
		"Default per-query worker budget for parallel execution (1 = serial).")
	e.morselsDispatched = r.NewCounter("auditdb_morsels_dispatched_total", "morsels_dispatched",
		"Morsels handed out by parallel scan cursors.")
	e.parallelQueries = r.NewCounter("auditdb_parallel_queries_total", "parallel_queries",
		"SELECTs executed with a parallel operator (Gather exchange or two-phase aggregate) in their plan.")
	e.planCacheHits = r.NewCounter("auditdb_plan_cache_hits_total", "plan_cache_hits",
		"SELECTs served from a session's prepared-plan cache, skipping plan/optimize/instrument work.")
	e.chunksScanned = r.NewCounter("auditdb_chunks_scanned_total", "chunks_scanned",
		"Chunks read by scan kernels when chunk statistics were consulted.")
	e.predInterpreted = r.NewCounter("auditdb_pred_interpreted_rows_total", "pred_interpreted_rows",
		"Rows whose scan or filter predicate the interpreter evaluated because the compiled fast path did not claim them.")
	e.auditProbes = r.NewCounter("auditdb_audit_probes_total", "audit_probes",
		"Rows audit operators inspected, probes elided on a sketch-refuted chunk included.")
	e.chunksSkipped = r.NewCounterVec("auditdb_chunks_skipped_total", "chunks_skipped",
		"Chunks skipped by data skipping, by reason (filter = zone-map refutation of the pushed predicate, audit = sensitive-ID sketch refutation).", "reason")
	e.sharedCacheHits = r.NewCounter("auditdb_plan_cache_shared_hits_total", "plan_cache_shared_hits",
		"Plans adopted from the engine-wide shared cache (a session cloned another session's template).")
	e.sharedCacheMisses = r.NewCounter("auditdb_plan_cache_shared_misses_total", "plan_cache_shared_misses",
		"Canonical statement shapes that had to be planned cold because no shared template matched.")
	e.sharedCacheEvictions = r.NewCounter("auditdb_plan_cache_shared_evictions_total", "plan_cache_shared_evictions",
		"Canonical texts dropped from the shared plan cache by wholesale shard eviction.")
	r.NewGaugeFunc("auditdb_plan_cache_shared_entries", "plan_cache_shared_entries",
		"Canonical statement texts currently resident in the shared plan cache.",
		func() int64 { return e.sharedPlans.entries() })
	e.tracesSampled = r.NewCounter("auditdb_traces_sampled_total", "traces_sampled",
		"Statements whose full span tree was captured (head sampling or SET trace = on).")
	e.traceRingEvictions = r.NewCounter("auditdb_trace_ring_evictions_total", "trace_ring_evictions",
		"Retained traces evicted from the bounded trace ring by newer ones.")
	r.NewGaugeFunc("auditdb_trace_ring_traces", "trace_ring_traces",
		"Traces currently retained in the trace ring.",
		func() int64 { return int64(e.traceRing.Len()) })
	e.triageMetrics = triage.NewMetrics(r)
	e.offlineVerdicts = r.NewCounterVec("auditdb_offline_verdicts_total", "offline_verdicts",
		"Exact offline verdicts, by path (static = an exact triage firing confirmed with no execution, lineage = decided by the one instrumented run, deletion = some candidate needed the tuple-deletion test).", "path")
	e.offlineExecutions = r.NewCounter("auditdb_offline_executions_total", "offline_executions",
		"Full query executions performed by offline audits (instrumented runs, baselines and deletion tests).")
	e.offlineDeferred = r.NewCounterVec("auditdb_offline_deferred_total", "offline_deferred",
		"Offline-audit candidates lineage could not decide, by reason (the plan shape, or vanished).", "reason")
}

// Metrics exposes the engine's observability registry so servers can
// mount it on an HTTP endpoint and register their own counters beside
// the engine's.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// SetLogger installs the structured logger that receives trigger
// firings and slow-query events. nil restores the discard logger.
func (e *Engine) SetLogger(l *slog.Logger) {
	if l == nil {
		l = slog.New(discardHandler{})
	}
	e.logger.Store(l)
}

// discardHandler is the default logger's handler: it is enabled at no
// level, so a caller that checks Logger().Enabled builds no record.
// (slog.DiscardHandler is the same, from go 1.24 on.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// Logger returns the engine's current structured logger.
func (e *Engine) Logger() *slog.Logger { return e.logger.Load() }

// SetSlowQueryThreshold enables the slow-query log: top-level
// statements whose record's elapsed time reaches d are logged with
// their SQL, latency, rows scanned/audited and placement outcome (nested
// statements included). d <= 0 disables it.
func (e *Engine) SetSlowQueryThreshold(d time.Duration) {
	e.slowQueryNanos.Store(int64(d))
}

// Catalog exposes the schema registry.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// Store exposes the row store (used by the offline auditor and tests).
func (e *Engine) Store() *storage.Store { return e.store }

// Registry exposes the compiled audit expressions.
func (e *Engine) Registry() *core.Registry { return e.reg }

// StatsSnapshot returns current counter values from the obs registry —
// the same atomics /metrics renders, keyed by wire alias.
func (e *Engine) StatsSnapshot() map[string]int64 {
	return e.metrics.Snapshot()
}

// SetUser sets the default session's user reported by USERID().
// Per-connection identity belongs on Session; this remains for the
// embeddable single-session API.
func (e *Engine) SetUser(u string) { e.defSess.SetUser(u) }

// SetHeuristic selects the audit-operator placement algorithm for
// every session. Cached plans were placed under the old one, so it
// bumps the version DDL bumps and both plan-cache levels drop them.
func (e *Engine) SetHeuristic(h core.Heuristic) {
	e.heuristic.Store(uint32(h))
	e.ddlVersion.Add(1)
}

// Heuristic returns the engine's placement algorithm.
func (e *Engine) Heuristic() core.Heuristic { return core.Heuristic(e.heuristic.Load()) }

// SetAuditAll makes every SELECT on the default session instrumented
// for every compiled audit expression even without ON ACCESS triggers;
// benchmarks and the offline-auditor pipeline use this. New sessions
// inherit it.
func (e *Engine) SetAuditAll(on bool) { e.defSess.SetAuditAll(on) }

// OnNotify installs the callback invoked by NOTIFY actions (the
// paper's SEND EMAIL stand-in).
func (e *Engine) OnNotify(fn func(msg string)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.notify = fn
}

// AccessEvent describes one query's accesses to one audit expression,
// delivered synchronously before the query's results are returned to
// the caller — the "warn before returning results" trigger variant the
// paper sketches as future work (§II), and the basis for real-time
// feedback scenarios (§I).
type AccessEvent struct {
	// Expression is the audit expression's name.
	Expression string
	// User and SQL identify the access.
	User, SQL string
	// IDs are the partition-by keys recorded in ACCESSED, sorted.
	IDs []value.Value
}

// OnAccess installs a callback invoked for every audited SELECT that
// recorded at least one sensitive ID, after the ON ACCESS triggers and
// before the result is handed back.
func (e *Engine) OnAccess(fn func(ev AccessEvent)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onAccess = fn
}

// Exec parses and executes a single statement under the default
// session. Like the session it is not safe for concurrent use; open a
// Session per goroutine (NewSession).
func (e *Engine) Exec(sql string) (*Result, error) { return e.defSess.Exec(sql) }

// ExecScript executes a semicolon-separated script under the default
// session, returning the last statement's result. Not safe for
// concurrent use; open a Session per goroutine.
func (e *Engine) ExecScript(sql string) (*Result, error) { return e.defSess.ExecScript(sql) }

// Query parses and executes a SELECT under the default session. Not
// safe for concurrent use; open a Session per goroutine.
func (e *Engine) Query(sql string) (*Result, error) { return e.defSess.Query(sql) }

// actionEnv carries trigger-body execution state: the NEW/OLD outer
// row, the ACCESSED relation, and the cascade depth.
type actionEnv struct {
	outerSchema plan.Schema
	outerRow    value.Row
	// accessed is the ACCESSED relation's one column inside a SELECT
	// trigger's action (zero elsewhere), and extraRows binds its rows.
	// planEnv turns the column into a schema only when a statement of
	// the action is planned.
	accessed  plan.ColInfo
	extraRows map[string][]value.Row
	params    []value.Value
	txn       *Txn
	// sess is the session the statement executes under; trigger actions
	// inherit it so USERID()/sqltext() resolve to the user whose query
	// fired them. nil means the engine's default session.
	sess *Session
	// lockHeld marks statements running while an enclosing transaction
	// already holds the writer lock but outside its undo scope (SELECT
	// trigger actions — the paper's system transactions).
	lockHeld bool
	depth    int
	// canonTried marks a top-level statement already offered to the
	// canonical plan cache (runCanonSelect), so it is normalized once.
	canonTried bool
	// unit buffers WAL operations for the atomic unit this statement
	// belongs to; trigger cascades share their firing statement's unit,
	// SELECT-trigger system transactions get their own (trigger.go).
	unit *walUnit
	// trigger is the trigger whose body the statement belongs to, nil
	// outside trigger bodies; runSelect caches the body's SELECTs.
	trigger *compiledTrigger
}

func rootActionEnv() *actionEnv { return &actionEnv{} }

// child derives the environment for the action of trigger t, a classic
// trigger.
func (a *actionEnv) child(t *compiledTrigger) *actionEnv {
	// Classic trigger actions join the enclosing transaction's undo
	// scope (and its WAL unit); SELECT-trigger actions clear txn via
	// systemChild.
	return &actionEnv{depth: a.depth + 1, txn: a.txn, sess: a.sess, lockHeld: a.lockHeld, unit: a.unit, trigger: t}
}

// systemChild derives the environment for the action of trigger t, a
// SELECT trigger: it runs as its own system transaction (§II of the
// paper), so a rollback of the reading transaction cannot erase the
// audit trail. The firing session carries over — the logged USERID()
// must be the reader's, not whoever touched the engine last.
func (a *actionEnv) systemChild(t *compiledTrigger) *actionEnv {
	return &actionEnv{depth: a.depth + 1, sess: a.sess, lockHeld: a.lockHeld || a.txn != nil, trigger: t}
}

// execStmt runs one parsed statement. It records into whatever statement
// record the session has open — the front door's for a top-level
// statement, the enclosing statement's for trigger cascades and IF
// bodies, none for recovery's replay.
func (e *Engine) execStmt(stmt ast.Stmt, sql string, env *actionEnv) (*Result, error) {
	if env.depth > MaxCascadeDepth {
		return nil, fmt.Errorf("trigger cascade exceeds maximum depth %d", MaxCascadeDepth)
	}
	e.stats.Statements.Add(1)
	switch stmt.(type) {
	case *ast.TxBegin, *ast.TxCommit, *ast.TxRollback:
		return e.runTxControl(stmt, env)
	}
	return e.inUnit(env, func() (*Result, error) { return e.dispatchStmt(stmt, sql, env) })
}

// inUnit is the statement preamble shared by parsed statements and
// plan-cache hits. Statements issued at depth 0 while the session's
// SQL-level transaction is open run inside it. A top-level autocommit
// statement is one durable atomic unit: everything it and its trigger
// cascade write becomes a single WAL commit record, flushed when the
// statement finishes (on error too — with no transaction there is no
// undo, so applied changes stay in memory and must reach the log). The
// checkpoint read-lock spans apply and flush so a checkpoint can never
// capture a change in its snapshot while the change's commit record
// lands in a segment the checkpoint does not truncate.
func (e *Engine) inUnit(env *actionEnv, run func() (*Result, error)) (*Result, error) {
	if env.txn == nil && env.depth == 0 {
		env.txn = e.sessionOf(env).openTxn()
	}
	if e.wal == nil || env.depth != 0 || env.txn != nil || env.unit != nil {
		return run()
	}
	e.ckptMu.RLock()
	env.unit = &walUnit{}
	res, err := run()
	flushErr := e.flushUnitTraced(e.sessionOf(env), env.unit)
	e.ckptMu.RUnlock()
	if err == nil {
		err = flushErr
	}
	return res, err
}

func (e *Engine) dispatchStmt(stmt ast.Stmt, sql string, env *actionEnv) (*Result, error) {
	switch s := stmt.(type) {
	case *ast.Select:
		return e.runSelect(s, sql, env)
	case *ast.Insert:
		return e.runInsert(s, sql, env)
	case *ast.Update:
		return e.runUpdate(s, sql, env)
	case *ast.Delete:
		return e.runDelete(s, sql, env)
	case *ast.CreateTable:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runCreateTable(s) })
	case *ast.CreateIndex:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runCreateIndex(s) })
	case *ast.DropTable:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runDropTable(s) })
	case *ast.CreateAuditExpression:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runCreateAuditExpression(s) })
	case *ast.DropAuditExpression:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runDropAuditExpression(s) })
	case *ast.CreateTrigger:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runCreateTrigger(s) })
	case *ast.DropTrigger:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runDropTrigger(s) })
	case *ast.If:
		return e.runIf(s, sql, env)
	case *ast.Notify:
		return e.runNotify(s, env)
	case *ast.Explain:
		return e.runExplain(s, sql, env)
	case *ast.CreateView:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runCreateView(s) })
	case *ast.DropView:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runDropView(s) })
	case *ast.DropIndex:
		return e.execDDL(env, stmt, func() (*Result, error) { return e.runDropIndex(s) })
	case *ast.VerifyAuditLog:
		return e.runVerifyAuditLog()
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// execDDL runs one DDL statement and, on success, buffers its
// canonical text on the current atomic unit so replay re-executes it
// in order with the surrounding DML.
func (e *Engine) execDDL(env *actionEnv, stmt ast.Stmt, run func() (*Result, error)) (*Result, error) {
	res, err := run()
	if err == nil {
		e.bufferDDL(env, stmt)
		// Any successful DDL may change what a SQL text plans to
		// (schemas, views, audit expressions, triggers): invalidate every
		// session's cached plans by bumping the global version.
		e.ddlVersion.Add(1)
	}
	return res, err
}

// planEnv builds the plan environment for a statement executed under
// the given action environment.
func (e *Engine) planEnv(env *actionEnv) *plan.Env {
	pe := &plan.Env{Catalog: e.cat, System: sysSchemas}
	if env.accessed.Name != "" {
		pe.Extra = map[string]plan.Schema{accessedName: {env.accessed}}
	}
	e.mu.RLock()
	if len(e.views) > 0 {
		pe.Views = make(map[string]*ast.Select, len(e.views))
		for k, v := range e.views {
			pe.Views[k] = v
		}
	}
	e.mu.RUnlock()
	return pe
}

func (e *Engine) execCtx(env *actionEnv, sql string) *exec.Ctx {
	ctx := exec.NewCtx(e.store)
	e.bindCtx(ctx, env, sql)
	return ctx
}

// bindCtx sets the per-execution fields of an execution context: the
// session functions' values (USERID(), sqltext(), now()), the bound
// parameters, the correlation stack, the transient relations and the
// skipping switch (SET skipping is no planning knob, so it can change
// under a cached plan). A reused operator instance's context goes
// through it before every run, so nothing of the previous execution's
// inputs survives.
func (e *Engine) bindCtx(ctx *exec.Ctx, env *actionEnv, sql string) {
	sess := e.sessionOf(env)
	sess.lock()
	user, skipOff := sess.user, sess.skipOff
	sess.unlock()
	ctx.Eval.Session = plan.SessionInfo{User: user, SQL: sql, Now: e.clock()}
	ctx.Eval.Params = env.params
	ctx.Eval.Outer = ctx.Eval.Outer[:0]
	ctx.Extra = env.extraRows
	ctx.NoSkip = skipOff
}

// BuildQueryPlan parses, plans, optimizes and (optionally) instruments
// a SELECT without executing it; used by tests, EXPLAIN-style tooling
// and the benchmark harness. The plan is always serial; an instrumented
// one uses the engine's placement and the default session's audit-all
// knob, and its audit operators record into the returned ACCESSED
// state.
func (e *Engine) BuildQueryPlan(sql string, instrument bool) (plan.Node, *core.Accessed, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, nil, err
	}
	if !instrument {
		c, err := e.build(sel, rootActionEnv())
		if err != nil {
			return nil, nil, err
		}
		return c.root, nil, nil
	}
	k := e.defSess.planKnobs()
	k.workers = 1
	c, err := e.compile(sel, rootActionEnv(), k)
	if err != nil {
		return nil, nil, err
	}
	return c.root, c.record(), nil
}

// auditTargets returns the audit expressions whose accesses must be
// tracked: all of them when the session is in audit-all mode,
// otherwise those with at least one ON ACCESS trigger.
func (e *Engine) auditTargets(auditAll bool) []*core.AuditExpression {
	var out []*core.AuditExpression
	for _, ae := range e.reg.All() {
		if auditAll || len(e.cat.TriggersFor(catalog.TriggerOnAccess, ae.Meta.Name)) > 0 {
			out = append(out, ae)
		}
	}
	return out
}

func (e *Engine) runSelect(sel *ast.Select, sql string, env *actionEnv) (*Result, error) {
	e.stats.Queries.Add(1)

	// A top-level statement that arrived parsed (pgwire simple, a script
	// of one SELECT, Txn.Exec) still shares plans engine-wide through the
	// canonical cache. Anything whose text is not this one SELECT —
	// scripts, INSERT ... SELECT, IF bodies — fails to normalize and is
	// compiled below.
	if env.depth == 0 && env.outerSchema == nil && env.extraRows == nil {
		if res, ok, err := e.runCanonSelect(sql, nil, env, false); ok {
			return res, err
		}
	}

	// A trigger body's SELECT is planned once per session, knobs and
	// catalog version: its entry lives in the session's L1 under the
	// trigger's key, and every later firing resets the entry's operator
	// instance, ACCESSED and NEW/OLD being bound per run (bindCtx).
	sess := e.sessionOf(env)
	k := sess.planKnobs()
	r := &sess.rec
	start := time.Now()
	var key []byte
	if env.trigger != nil && !e.disablePlanCache {
		key = env.trigger.plans[sel]
	}
	version := e.ddlVersion.Load()
	if key != nil {
		if pe := sess.cachedCanonPlan(key, k, version); pe != nil {
			notePlan(r, start, time.Since(start), "hit")
			return e.executeSelect(pe, sql, env)
		}
	}
	c, err := e.compile(sel, env, k)
	if err != nil {
		return nil, err
	}
	r.AddSpan(notePlan(r, start, time.Since(start), "miss"), "optimize", c.optStart, c.optDur)
	pe := &planEntry{compiled: c, knobs: k, version: version}
	if key != nil {
		sess.storeCanonPlan(key, pe)
	}
	return e.executeSelect(pe, sql, env)
}

// executeSelect is the one execution tail for every compiled SELECT,
// cached or fresh: point the plan's probes at a new ACCESSED state (a
// plan without an audit operator records none, and its Result's
// Accessed stays nil), run the entry's operator instance, fire ON
// ACCESS triggers, account the engine counters and the statement
// record's slow-log fields. pe is the session's L1 entry on the cached
// path, or a one-use entry wrapping a freshly compiled plan.
func (e *Engine) executeSelect(pe *planEntry, sql string, env *actionEnv) (*Result, error) {
	sess := e.sessionOf(env)
	c := pe.compiled
	targets := c.targets
	var acc *core.Accessed
	if c.hasAudit {
		acc = c.record()
		if c.placementExact() {
			e.stats.PlacementExact.Add(1)
		} else {
			e.stats.PlacementConservative.Add(1)
		}
	}
	if len(targets) > 0 && sess.recPlacement != "conservative" {
		sess.recPlacement = "conservative"
		if c.placementExact() {
			sess.recPlacement = "exact"
		}
	}

	rec := &sess.rec
	rows, _, err := e.run(pe, sql, env, rec.Sampling())
	if err != nil {
		return nil, err
	}

	res := &Result{Columns: c.columns, Kinds: c.kinds, Rows: rows, Accessed: acc}

	// Fire ON ACCESS triggers as their own system transactions after
	// the query completes (§II). Without an audit operator nothing was
	// recorded.
	if acc != nil {
		// The audit phase starts at the first expression that recorded
		// an ID: a statement that recorded none reads no clock.
		var auditStart time.Time
		var onAccess func(AccessEvent)
		for i, ae := range targets {
			recorded := int64(acc.Len(ae.Meta.Name))
			if recorded == 0 {
				continue
			}
			if auditStart.IsZero() {
				auditStart = time.Now()
				e.mu.RLock()
				onAccess = e.onAccess
				e.mu.RUnlock()
			}
			sess.recAudited += recorded
			e.stats.RowsAudited.Add(recorded)
			e.rowsAuditedByTable.With(strings.ToLower(ae.Meta.SensitiveTable)).Add(recorded)
			triggers := e.cat.TriggersFor(catalog.TriggerOnAccess, ae.Meta.Name)
			if len(triggers) == 0 && onAccess == nil {
				continue
			}
			// The sorted IDs are built once and shared by the firing and
			// the callback.
			ids := acc.IDs(ae.Meta.Name)
			if err := e.fireAccessTriggers(ae, triggers, ids, c.exact[i], sql, env); err != nil {
				return nil, fmt.Errorf("SELECT trigger action failed: %w", err)
			}
			if onAccess != nil {
				onAccess(AccessEvent{Expression: ae.Meta.Name, User: sess.User(), SQL: sql, IDs: ids})
			}
		}
		if !auditStart.IsZero() {
			rec.AddPhase(trace.PhaseAudit, time.Since(auditStart))
		}
	}
	return res, nil
}

// run is the one run routine of a compiled SELECT, observed or not: it
// binds the entry's operator instance to the statement, runs it, folds
// its records into the engine's metrics and the statement record, and
// under a sampled statement adds the storage.skip span and one span per
// operator. timed (a sampled statement, EXPLAIN ANALYZE) only makes the
// operators read wall clocks. It returns the rows and the exec phase's
// duration.
func (e *Engine) run(pe *planEntry, sql string, env *actionEnv, timed bool) ([]value.Row, time.Duration, error) {
	sess := e.sessionOf(env)
	if pe.parallel {
		e.parallelQueries.Add(1)
	}
	inst := pe.instance(e.store)
	ctx := inst.Ctx()
	e.bindCtx(ctx, env, sql)
	if pe.sys != nil {
		e.bindSys(ctx, pe.sys)
	}
	ctx.Workers = pe.knobs.workers
	ctx.Timed = timed
	if pe.correlated {
		ctx.Eval.PushOuter(env.outerRow)
	}
	rec := &sess.rec
	execSpan := rec.StartSpan("execute")
	execStart := time.Now()
	rows, err := inst.Run()
	execDur := time.Since(execStart)
	t := inst.Totals()
	e.foldStats(sess, &t)
	if execSpan >= 0 {
		if t.ChunksScanned+t.ChunksSkippedFilter+t.ChunksSkippedAudit > 0 {
			// The pruning decisions happen inside the scan kernels; the
			// span records their outcome (counts, not time) under the
			// execute span so traces show what skipping did.
			skipSpan := rec.AddSpan(execSpan, "storage.skip", execStart, 0)
			rec.SetAttrInt(skipSpan, "chunks_scanned", t.ChunksScanned)
			rec.SetAttrInt(skipSpan, "chunks_skipped_filter", t.ChunksSkippedFilter)
			rec.SetAttrInt(skipSpan, "chunks_skipped_audit", t.ChunksSkippedAudit)
		}
		if err == nil {
			addOperatorSpans(rec, execSpan, inst, execStart)
		}
	}
	rec.EndSpan(execSpan)
	rec.AddPhase(trace.PhaseExec, execDur)
	return rows, execDur, err
}

// foldStats folds one execution's scan totals (exec.Instance.Totals)
// into the engine's metrics and the statement record's rows_scanned:
// every SELECT's, EXPLAIN ANALYZE's, and every UPDATE's and DELETE's
// read.
func (e *Engine) foldStats(sess *Session, t *obs.NodeStats) {
	e.stats.RowsScanned.Add(t.RowsScanned)
	sess.recScanned += t.RowsScanned
	if t.Morsels > 0 {
		e.morselsDispatched.Add(t.Morsels)
	}
	if t.PredInterpreted > 0 {
		e.predInterpreted.Add(t.PredInterpreted)
	}
	if t.Probes > 0 {
		e.auditProbes.Add(t.Probes)
	}
	if t.ChunksScanned+t.ChunksSkippedFilter+t.ChunksSkippedAudit > 0 {
		e.chunksScanned.Add(t.ChunksScanned)
		if t.ChunksSkippedFilter > 0 {
			e.chunksSkipped.With("filter").Add(t.ChunksSkippedFilter)
		}
		if t.ChunksSkippedAudit > 0 {
			e.chunksSkipped.With("audit").Add(t.ChunksSkippedAudit)
		}
	}
}

func (e *Engine) runIf(s *ast.If, sql string, env *actionEnv) (*Result, error) {
	cond, err := plan.BuildScalar(e.planEnv(env), env.outerSchema, s.Cond)
	if err != nil {
		return nil, err
	}
	ctx := e.execCtx(env, sql)
	e.bindSysExpr(ctx, cond)
	v, err := cond.Eval(ctx.Eval, env.outerRow)
	if err != nil {
		return nil, err
	}
	if value.TriFromValue(v) != value.True {
		return &Result{}, nil
	}
	var last *Result
	for _, t := range s.Then {
		r, err := e.execStmt(t, sql, env)
		if err != nil {
			return nil, err
		}
		last = r
	}
	if last == nil {
		last = &Result{}
	}
	return last, nil
}

func (e *Engine) runNotify(s *ast.Notify, env *actionEnv) (*Result, error) {
	msg, err := plan.BuildScalar(e.planEnv(env), env.outerSchema, s.Message)
	if err != nil {
		return nil, err
	}
	ctx := e.execCtx(env, "")
	e.bindSysExpr(ctx, msg)
	v, err := msg.Eval(ctx.Eval, env.outerRow)
	if err != nil {
		return nil, err
	}
	e.stats.Notifications.Add(1)
	e.mu.RLock()
	fn := e.notify
	e.mu.RUnlock()
	if fn != nil {
		fn(v.String())
	}
	return &Result{}, nil
}

// runExplain handles the EXPLAIN statement: it plans (and, when
// auditing is active, instruments) the query without executing it and
// returns the plan tree one line per row. EXPLAIN ANALYZE additionally
// executes the plan — see runExplainAnalyze.
func (e *Engine) runExplain(s *ast.Explain, sql string, env *actionEnv) (*Result, error) {
	if s.Analyze {
		return e.runExplainAnalyze(s, sql, env)
	}
	c, err := e.compile(s.Query, env, e.sessionOf(env).planKnobs())
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(plan.Explain(c.root), "\n"), "\n") {
		res.Rows = append(res.Rows, value.Row{value.NewString(line)})
	}
	return res, nil
}

// Explain returns the (optionally instrumented) plan for a query as an
// indented tree.
func (e *Engine) Explain(sql string, instrument bool) (string, error) {
	n, _, err := e.BuildQueryPlan(sql, instrument)
	if err != nil {
		return "", err
	}
	return plan.Explain(n), nil
}
