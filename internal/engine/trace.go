package engine

import (
	"time"

	"auditdb/internal/exec"
	"auditdb/internal/obs"
	"auditdb/internal/trace"
)

// DefaultTraceRingCap bounds how many finished traces the engine
// retains for sys.traces, sys.spans and the /traces endpoint.
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
// records of the instance that just ran, nested to mirror the plan
// tree, then one span per parallel worker under each operator whose
// fragments executed under an exchange. It runs on the statement
// goroutine after the run returned — the exchange's Close is the
// happens-before edge for the workers' folded records, so no worker
// ever touches the Rec (the Probe.Fork/Merge discipline applied to
// tracing). Operator Start offsets are the exec phase start; Dur is the
// operator's observed cumulative wall clock. The labels come from the
// instance's kept operator list and the attributes share one
// allocation, so tracing a reused instance costs a few allocations, not
// a relabelled plan.
func addOperatorSpans(r *trace.Rec, parent int, in *exec.Instance, execStart time.Time) {
	ops := in.Ops()
	attrs := make([]trace.Attr, 0, 4*len(ops))
	first := -1
	for i, op := range ops {
		p := parent
		if op.Parent >= 0 {
			p = first + op.Parent
		}
		st := in.Stats(op.Node)
		var dur time.Duration
		if st != nil {
			dur = st.Wall
		}
		id := r.AddSpan(p, op.Label, execStart, dur)
		if id < 0 {
			return
		}
		if i == 0 {
			first = id
		}
		lo := len(attrs)
		if st == nil {
			attrs = append(attrs, trace.Attr{Key: "executed", Str: "never"})
		} else {
			attrs = append(attrs, trace.Attr{Key: "rows", Int: st.RowsOut}, trace.Attr{Key: "batches", Int: st.Batches})
			if st.Workers > 0 {
				attrs = append(attrs, trace.Attr{Key: "workers", Int: st.Workers})
			}
			if st.Morsels > 0 {
				attrs = append(attrs, trace.Attr{Key: "morsels", Int: st.Morsels})
			}
			if skipped := st.ChunksSkippedFilter + st.ChunksSkippedAudit; st.ChunksScanned+skipped > 0 {
				attrs = append(attrs, trace.Attr{Key: "chunks_scanned", Int: st.ChunksScanned},
					trace.Attr{Key: "chunks_skipped", Int: skipped})
			}
			if st.BuildLeft > 0 {
				attrs = append(attrs, trace.Attr{Key: "build", Str: "left"})
			}
		}
		r.SetAttrs(id, attrs[lo:len(attrs):len(attrs)])
	}
	for i, op := range ops {
		for _, ws := range in.WorkerRuns(op.Node) {
			wid := r.AddSpan(first+i, "worker", execStart, ws.Wall)
			r.SetAttrInt(wid, "rows", ws.RowsOut)
			r.SetAttrInt(wid, "morsels", ws.Morsels)
		}
	}
}
