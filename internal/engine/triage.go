package engine

import (
	"context"
	"fmt"
	"time"

	"auditdb/internal/core"
	"auditdb/internal/offline"
	"auditdb/internal/trace"
	"auditdb/internal/triage"
	"auditdb/internal/wal"
)

// ConfigureTriage (re)builds the triage service: a bounded priority
// queue over trigger firings drained by cfg.Workers background
// goroutines that decide each firing's verdict and append it, signed,
// to the audit chain. Workers <= 0 leaves triage disabled (the engine's
// default — embedded engines and unit tests pay nothing; auditdbd
// enables it via -triage-workers). Must be called before the engine
// serves traffic or between drained configurations, not concurrently
// with firings.
func (e *Engine) ConfigureTriage(cfg triage.Config) {
	if old := e.triage; old != nil && old.Enabled() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		old.Stop(ctx)
		cancel()
	}
	svc := triage.NewService(cfg, e.verifyTriageEvent, e.triageMetrics)
	e.triage = svc
	svc.Start()
}

// StopTriage drains the verification pool: workers finish the backlog
// while ctx lasts; when it expires, in-flight offline audits are
// cancelled mid-scan. Undrained events stay pending in the accounting.
func (e *Engine) StopTriage(ctx context.Context) {
	if e.triage != nil {
		e.triage.Stop(ctx)
	}
}

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

// verifyTriageEvent is the triage workers' callback: decide the
// event's verdict and chain it as a signed record. Outcomes: confirmed
// (the firing's accessed IDs hold up), refuted (a replay found none —
// the online placement over-reported, Example 3.8), skipped (the
// expression was dropped, or the statement is not a single auditable
// query, e.g. a script).
//
// An exact event (compiled.exact) is confirmed as it stands, with no
// query run: its IDs are the Definition 2.3 answer as of the firing's
// own read (Theorem 3.7, and ACCESSED is invariant across workers,
// skipping and plan caches), so the verdict holds whatever the table
// holds now. Any other event replays its statement through the offline
// auditor against current data.
func (e *Engine) verifyTriageEvent(ctx context.Context, ev triage.Event) (triage.Result, error) {
	if e.wal == nil {
		return triage.Result{}, fmt.Errorf("triage: no WAL attached")
	}
	outcome := wal.VerdictSkipped
	suspicious, path, executions := 0, "", 0
	var elapsed time.Duration
	if ev.Exact {
		outcome, suspicious, path = wal.VerdictConfirmed, ev.NumIDs, "static"
		e.offlineVerdicts.With(path).Inc()
	} else if ae, ok := e.reg.Get(ev.Expr); ok {
		t0 := time.Now()
		// Serial deletion tests: background verification must not
		// commandeer the host's cores from foreground statements.
		rep, err := e.OfflineAudit(ctx, ev.SQL, ae, 1)
		elapsed = time.Since(t0)
		if ctx.Err() != nil {
			// Drain/shutdown cancelled the audit mid-scan: no verdict.
			return triage.Result{}, ctx.Err()
		}
		if err == nil {
			suspicious, path, executions = len(rep.AccessedIDs), rep.Path(), rep.Executions
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
	v := &wal.Verdict{
		AuditSeq:     ev.AuditSeq,
		Outcome:      outcome,
		User:         ev.User,
		Expr:         ev.Expr,
		QID:          ev.QID,
		Score:        float64(ev.Priority), // the record's float field carries the priority
		Suspicious:   uint32(suspicious),
		ElapsedNanos: int64(elapsed),
		UnixNano:     time.Now().UnixNano(),
	}
	seq, err := e.wal.AppendVerdict(v)
	if err != nil {
		return triage.Result{}, err
	}
	e.retainVerifyTrace(ev, wal.VerdictName(outcome), suspicious, elapsed, path, executions)
	return triage.Result{
		ChainSeq:   seq,
		Outcome:    wal.VerdictName(outcome),
		Suspicious: suspicious,
	}, nil
}

// retainVerifyTrace pushes a one-span trace for the background
// verification into the trace ring under the firing statement's query
// ID, so sys.spans and /traces?qid= correlate the original statement
// with its later verdict. path is "static" for an exact
// event, the offline report's path for a replay, and empty when no
// verdict was reached (dropped expression, unauditable statement).
func (e *Engine) retainVerifyTrace(ev triage.Event, outcome string, suspicious int, elapsed time.Duration, path string, executions int) {
	var r trace.Rec
	r.Begin(ev.QID, true)
	start := time.Now().Add(-elapsed)
	if id := r.AddSpan(r.Current(), "triage.verify", start, elapsed); id >= 0 {
		r.SetAttr(id, "expr", ev.Expr)
		r.SetAttr(id, "outcome", outcome)
		r.SetAttrInt(id, "suspicious", int64(suspicious))
		r.SetAttrInt(id, "priority", int64(ev.Priority))
		if path != "" {
			r.SetAttr(id, "path", path)
			r.SetAttrInt(id, "executions", int64(executions))
		}
	}
	if t := r.Finish(ev.User, ev.SQL, "", true); t != nil {
		if e.traceRing.Add(t) {
			e.traceRingEvictions.Inc()
		}
	}
}
