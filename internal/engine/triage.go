package engine

import (
	"context"
	"fmt"
	"time"

	"auditdb/internal/core"
	"auditdb/internal/offline"
	"auditdb/internal/trace"
	"auditdb/internal/triage"
	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// ConfigureTriage (re)builds the budgeted-triage service: a bounded
// risk-priority queue over trigger firings drained by cfg.Workers
// background goroutines that re-derive each firing with the exact
// offline auditor and append a signed verdict to the audit chain.
// Workers <= 0 leaves triage disabled (the engine's default — embedded
// engines and unit tests pay nothing; auditdbd enables it via
// -triage-workers). Must be called before the engine serves traffic or
// between drained configurations, not concurrently with firings.
func (e *Engine) ConfigureTriage(cfg triage.Config) {
	if old := e.triage; old != nil && old.Enabled() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		old.Stop(ctx)
		cancel()
	}
	svc := triage.NewService(cfg, nil, e.verifyTriageEvent, e.triageMetrics)
	e.triage = svc
	svc.Start()
}

// Triage exposes the triage service (never nil after New).
func (e *Engine) Triage() *triage.Service { return e.triage }

// StopTriage drains the verification pool: workers finish the backlog
// while ctx lasts; when it expires, in-flight offline audits are
// cancelled mid-scan. Undrained events stay pending in the accounting.
func (e *Engine) StopTriage(ctx context.Context) {
	if e.triage != nil {
		e.triage.Stop(ctx)
	}
}

// SetTriage toggles triage enqueueing for the default session
// (SET triage = on|off). The service itself keeps running; new
// sessions inherit the setting.
func (e *Engine) SetTriage(on bool) { e.defSess.SetTriage(on) }

// OfflineAudit runs the exact offline auditor (Def 2.3) for one query
// against one audit expression and accounts for the verdict in the
// engine's metrics: which path reached it, how many query executions it
// cost, and why any candidate had to be deferred to the deletion test.
// parallelism bounds the deletion-test pool (<= 0 uses GOMAXPROCS).
func (e *Engine) OfflineAudit(ctx context.Context, sql string, ae *core.AuditExpression, parallelism int) (*offline.Report, error) {
	aud := offline.New(e.cat, e.store)
	aud.Parallelism = parallelism
	rep, err := aud.AuditContext(ctx, sql, ae)
	if err != nil {
		return nil, err
	}
	e.offlineVerdicts.With(rep.Path()).Inc()
	e.offlineExecutions.Add(int64(rep.Executions))
	for reason, n := range rep.DeferReasons {
		e.offlineDeferred.With(reason).Add(int64(n))
	}
	return rep, nil
}

// verifyTriageEvent is the triage workers' callback: run the exact
// offline auditor (Def 2.3) for the event's statement — unless the
// per-minute budget is exhausted — and chain a signed verdict record.
// Outcomes: confirmed (the offline audit found accessed sensitive
// tuples, the firing was right), refuted (it found none — the online
// placement over-reported, Example 3.8), skipped-budget (budget
// exhausted, the expression was dropped, or the statement is not a
// single auditable query, e.g. a script).
func (e *Engine) verifyTriageEvent(ctx context.Context, ev triage.Event, budgeted bool) (triage.Result, error) {
	if e.wal == nil {
		return triage.Result{}, fmt.Errorf("triage: no WAL attached")
	}
	outcome := wal.VerdictSkipped
	suspicious := 0
	var elapsed time.Duration
	var rep *offline.Report
	if budgeted {
		if ae, ok := e.reg.Get(ev.Expr); ok {
			t0 := time.Now()
			// Serial deletion tests: background verification must not
			// commandeer the host's cores from foreground statements.
			var err error
			rep, err = e.OfflineAudit(ctx, ev.SQL, ae, 1)
			elapsed = time.Since(t0)
			if ctx.Err() != nil {
				// Drain/shutdown cancelled the audit mid-scan: no verdict.
				return triage.Result{}, ctx.Err()
			}
			if err == nil {
				suspicious = len(rep.AccessedIDs)
				if suspicious > 0 {
					outcome = wal.VerdictConfirmed
				} else {
					outcome = wal.VerdictRefuted
				}
			}
			// err != nil: the recorded SQL is not offline-auditable (a
			// multi-statement script, a since-dropped table); the event
			// still gets a chained skipped verdict rather than vanishing.
		}
	}
	v := &wal.Verdict{
		AuditSeq:     ev.AuditSeq,
		Outcome:      outcome,
		User:         ev.User,
		Expr:         ev.Expr,
		QID:          ev.QID,
		Score:        ev.Score,
		Suspicious:   uint32(suspicious),
		ElapsedNanos: int64(elapsed),
		UnixNano:     time.Now().UnixNano(),
	}
	seq, err := e.wal.AppendVerdict(v)
	if err != nil {
		return triage.Result{}, err
	}
	if budgeted {
		// Only real audits earn a triage.verify span: a skipped-budget
		// verdict carries nothing the verdict ring doesn't already
		// hold, and the skip path runs once per firing under overload.
		e.retainVerifyTrace(ev, wal.VerdictName(outcome), suspicious, elapsed, rep)
	}
	return triage.Result{
		ChainSeq:   seq,
		Outcome:    wal.VerdictName(outcome),
		Suspicious: suspicious,
	}, nil
}

// retainVerifyTrace pushes a one-span trace for the background
// verification into the trace ring under the firing statement's query
// ID, so SHOW TRACE FOR <qid> and /traces?qid= correlate the original
// statement with its later offline verdict. rep is nil when no audit
// produced a report (dropped expression, unauditable statement).
func (e *Engine) retainVerifyTrace(ev triage.Event, outcome string, suspicious int, elapsed time.Duration, rep *offline.Report) {
	var r trace.Rec
	r.Begin(ev.QID, true)
	start := time.Now().Add(-elapsed)
	if id := r.AddSpan(r.Current(), "triage.verify", start, elapsed); id >= 0 {
		r.SetAttr(id, "expr", ev.Expr)
		r.SetAttr(id, "outcome", outcome)
		r.SetAttrInt(id, "suspicious", int64(suspicious))
		r.SetAttrInt(id, "score", int64(ev.Score))
		if rep != nil {
			r.SetAttr(id, "path", rep.Path())
			r.SetAttrInt(id, "executions", int64(rep.Executions))
		}
	}
	if t := r.Finish(ev.User, ev.SQL, "", true); t != nil {
		if e.traceRing.Add(t) {
			e.traceRingEvictions.Inc()
		}
	}
}

// runShowAuditQueue serves SHOW AUDIT QUEUE: the triage events
// resident in the bounded queue, highest risk first.
func (e *Engine) runShowAuditQueue() (*Result, error) {
	res := &Result{Columns: []string{"score", "user", "expression", "qid", "audit_seq", "ids", "sql"}}
	if e.triage == nil {
		return res, nil
	}
	for _, ev := range e.triage.Snapshot() {
		res.Rows = append(res.Rows, value.Row{
			value.NewFloat(ev.Score),
			value.NewString(ev.User),
			value.NewString(ev.Expr),
			value.NewInt(int64(ev.QID)),
			value.NewInt(int64(ev.AuditSeq)),
			value.NewInt(int64(ev.NumIDs)),
			value.NewString(ev.SQL),
		})
	}
	return res, nil
}

// runShowAuditVerdicts serves SHOW AUDIT VERDICTS: the recent-verdict
// ring, newest first. The durable record is the audit chain itself
// (VERIFY AUDIT LOG covers verdict records too).
func (e *Engine) runShowAuditVerdicts() (*Result, error) {
	res := &Result{Columns: []string{"seq", "audit_seq", "outcome", "score", "user", "expression", "qid", "suspicious", "elapsed_us"}}
	if e.triage == nil {
		return res, nil
	}
	for _, v := range e.triage.Verdicts() {
		res.Rows = append(res.Rows, value.Row{
			value.NewInt(int64(v.ChainSeq)),
			value.NewInt(int64(v.AuditSeq)),
			value.NewString(v.Outcome),
			value.NewFloat(v.Score),
			value.NewString(v.User),
			value.NewString(v.Expr),
			value.NewInt(int64(v.QID)),
			value.NewInt(int64(v.Suspicious)),
			value.NewInt(v.ElapsedNanos / 1000),
		})
	}
	return res, nil
}
