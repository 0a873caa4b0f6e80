package engine

import (
	"fmt"
	"time"

	"auditdb/internal/exec"
	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/trace"
	"auditdb/internal/value"
)

// DefaultTraceRingCap bounds how many finished traces the engine
// retains for SHOW TRACES / SHOW TRACE FOR and the /traces endpoint.
const DefaultTraceRingCap = 128

// SetTraceSampling enables head sampling: every nth top-level
// statement gets full span capture (1 = every statement, 0 disables).
// Tail-based capture of slow/error statements and per-session
// SET trace = on work regardless of this knob.
func (e *Engine) SetTraceSampling(n int) {
	if n < 0 {
		n = 0
	}
	e.traceEvery.Store(int64(n))
}

// TraceRing exposes the bounded buffer of retained traces; servers
// mount its Handler at /traces on the metrics listener.
func (e *Engine) TraceRing() *trace.Ring { return e.traceRing }

// traceBegin opens the session's statement record for one front-door
// call, assigning the query ID, deciding span capture and consuming the
// front end's transport note. Returns false when a statement is already
// being recorded (a callback re-entering the session), which stays
// inside the enclosing record. The unsampled path allocates nothing.
func (e *Engine) traceBegin(s *Session) bool {
	r := &s.rec
	if r.Active() {
		return false
	}
	qid := e.qidCtr.Add(1)
	on, proto, read := s.traceState()
	sampled := on
	if !sampled {
		if n := e.traceEvery.Load(); n > 0 && qid%uint64(n) == 0 {
			sampled = true
		}
	}
	r.Begin(qid, sampled)
	s.recScanned, s.recAudited, s.recPlacement = 0, 0, "uninstrumented"
	if proto != "" {
		r.SetAttr(charge(r, trace.PhaseTransport, "transport.read", r.Start(), read), "protocol", proto)
	}
	return true
}

// traced runs one front-door call inside the session's statement
// record, between traceBegin and traceFinish.
func (e *Engine) traced(s *Session, sql string, run func() (*Result, error)) (*Result, error) {
	if !e.traceBegin(s) {
		return run()
	}
	res, err := run()
	e.traceFinish(s, sql, res, err)
	return res, err
}

// charge adds d to phase p of the statement record and, when sampling,
// records a span for it under the innermost open span. It returns the
// span's ID, -1 (a no-op handle) when not sampling.
func charge(r *trace.Rec, p trace.Phase, name string, start time.Time, d time.Duration) int {
	r.AddPhase(p, d)
	return r.AddSpan(r.Current(), name, start, d)
}

// notePlan charges plan resolution to the plan phase and, when
// sampling, records a plan span naming where the plan came from
// ("hit", "shared", "cold", or "miss" for a per-execution compile). It
// returns the span's ID, -1 when not sampling.
func notePlan(r *trace.Rec, start time.Time, d time.Duration, src string) int {
	id := charge(r, trace.PhasePlan, "plan", start, d)
	r.SetAttr(id, "cache", src)
	return id
}

// traceFinish closes the statement the matching traceBegin opened and
// is the one place its clocks leave the record: it stamps the query ID
// into the result, feeds the phase histograms, writes the slow-query
// log, and retains the trace when it was sampled — or, tail-based, when
// the statement was slow or errored. The not-retained path allocates
// nothing.
func (e *Engine) traceFinish(s *Session, sql string, res *Result, err error) {
	r := &s.rec
	if !r.Active() {
		return
	}
	if res != nil {
		res.QID = r.QID()
	}
	elapsed := r.Elapsed()
	for _, o := range [...]struct {
		h *obs.Histogram
		d time.Duration
	}{
		{e.parseSeconds, r.Phase(trace.PhaseNormalize) + r.Phase(trace.PhaseParse)},
		{e.planSeconds, r.Phase(trace.PhasePlan)},
		{e.execSeconds, r.Phase(trace.PhaseExec)},
		{e.queryLatency, elapsed},
	} {
		if o.d > 0 {
			o.h.ObserveDuration(o.d)
		}
	}
	thr := e.slowQueryNanos.Load()
	slow := thr > 0 && int64(elapsed) >= thr
	if slow {
		e.Logger().Warn("slow query",
			"qid", r.QID(),
			"sql", sql,
			"user", s.User(),
			"latency", elapsed,
			"rows_scanned", s.recScanned,
			"rows_audited", s.recAudited,
			"placement", s.recPlacement,
		)
	}
	sampled := r.Sampling()
	if !sampled && !slow && err == nil {
		r.Finish("", "", "", false)
		return
	}
	errMsg := ""
	if err != nil {
		errMsg = err.Error()
	}
	t := r.Finish(s.User(), sql, errMsg, true)
	if sampled {
		e.tracesSampled.Inc()
	}
	if e.traceRing.Add(t) {
		e.traceRingEvictions.Inc()
	}
}

// flushUnitTraced is flushUnit with the statement's WAL phase clock
// and, when sampling, a wal.commit span covering submit through
// group-commit acknowledgement (fsync included under SyncAlways).
func (e *Engine) flushUnitTraced(s *Session, u *walUnit) error {
	if e.wal == nil || u == nil || len(u.ops) == 0 {
		return nil
	}
	n := len(u.ops)
	start := time.Now()
	err := e.flushUnit(u)
	d := time.Since(start)
	r := &s.rec
	r.SetAttrInt(charge(r, trace.PhaseWAL, "wal.commit", start, d), "ops", int64(n))
	return err
}

// addOperatorSpans synthesizes one span per plan operator from the
// Analyze collector, nested to mirror the plan tree, with one child
// span per parallel worker where fragments executed under an exchange.
// It runs on the statement goroutine after exec.Run returned — the
// exchange's Close is the happens-before edge for the workers' folded
// records, so no worker ever touches the Rec (the Probe.Fork/Merge
// discipline applied to tracing). Operator Start offsets are the exec
// phase start; Dur is the operator's observed cumulative wall clock.
func addOperatorSpans(r *trace.Rec, parent int, n plan.Node, az *exec.Analyze, execStart time.Time) {
	st := az.Stats(n)
	var dur time.Duration
	if st != nil {
		dur = st.Wall
	}
	id := r.AddSpan(parent, n.Label(), execStart, dur)
	if id < 0 {
		return
	}
	if st == nil {
		r.SetAttr(id, "executed", "never")
	} else {
		r.SetAttrInt(id, "rows", st.RowsOut)
		r.SetAttrInt(id, "batches", st.Batches)
		if st.Workers > 0 {
			r.SetAttrInt(id, "workers", st.Workers)
		}
		if st.Morsels > 0 {
			r.SetAttrInt(id, "morsels", st.Morsels)
		}
		if st.ChunksScanned+st.ChunksSkipped > 0 {
			r.SetAttrInt(id, "chunks_scanned", st.ChunksScanned)
			r.SetAttrInt(id, "chunks_skipped", st.ChunksSkipped)
		}
		if st.BuildLeft > 0 {
			r.SetAttr(id, "build", "left")
		}
	}
	for _, ws := range az.WorkerRuns(n) {
		wid := r.AddSpan(id, "worker", execStart, ws.Wall)
		r.SetAttrInt(wid, "rows", ws.RowsOut)
		r.SetAttrInt(wid, "morsels", ws.Morsels)
	}
	for _, c := range n.Children() {
		addOperatorSpans(r, id, c, az, execStart)
	}
	plan.WalkNodeExprs(n, func(ex plan.Expr) {
		if sq, ok := ex.(*plan.Subquery); ok {
			addOperatorSpans(r, id, sq.Plan, az, execStart)
		}
	})
}

// runShowTraces serves SHOW TRACES: the retained traces, newest first.
func (e *Engine) runShowTraces() (*Result, error) {
	res := &Result{Columns: []string{"qid", "user", "elapsed_us", "sampled", "spans", "error", "sql"}}
	for _, t := range e.traceRing.Snapshot() {
		sampled := value.Value{Kind: value.KindBool}
		if t.Sampled {
			sampled.I = 1
		}
		res.Rows = append(res.Rows, value.Row{
			value.Value{Kind: value.KindInt, I: int64(t.QID)},
			value.NewString(t.User),
			value.Value{Kind: value.KindInt, I: t.Elapsed / 1000},
			sampled,
			value.Value{Kind: value.KindInt, I: int64(len(t.Spans))},
			value.NewString(t.Err),
			value.NewString(t.SQL),
		})
	}
	return res, nil
}

// runShowTrace serves SHOW TRACE FOR <qid>: the span tree of one
// retained trace, one indented line per row.
func (e *Engine) runShowTrace(qid uint64) (*Result, error) {
	t := e.traceRing.Get(qid)
	if t == nil {
		return nil, fmt.Errorf(
			"no trace retained for query %d (sample with SET trace = on or -trace-sample; slow and errored statements are retained automatically)",
			qid)
	}
	res := &Result{Columns: []string{"trace"}}
	for _, line := range t.Render() {
		res.Rows = append(res.Rows, value.Row{value.NewString(line)})
	}
	return res, nil
}
