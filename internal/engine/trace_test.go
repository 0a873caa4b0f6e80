package engine

import (
	"bytes"
	"fmt"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/obs"
	"auditdb/internal/trace"
	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// auditedHealthSchema is the paper's running example plus the
// Audit_Alice expression and logging trigger — the same setup
// newAuditedHealthDB builds, as a script so durable engines can run it
// too.
const auditedHealthSchema = `
	CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
	CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
	INSERT INTO Patients VALUES
		(1, 'Alice', 34, '48109'),
		(2, 'Bob', 21, '48109'),
		(3, 'Carol', 47, '98052'),
		(4, 'Dave', 29, '98052'),
		(5, 'Erin', 62, '10001');
	INSERT INTO Disease VALUES
		(1, 'cancer'), (2, 'flu'), (3, 'flu'), (4, 'diabetes'), (5, 'cancer');
	CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
	CREATE AUDIT EXPRESSION Audit_Alice AS
		SELECT * FROM Patients WHERE Name = 'Alice'
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
	CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
		INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
`

func spansNamed(tr *trace.Trace, name string) []trace.Span {
	var out []trace.Span
	for _, sp := range tr.Spans {
		if sp.Name == name {
			out = append(out, sp)
		}
	}
	return out
}

func spanAttrStr(sp trace.Span, key string) (string, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Str, true
		}
	}
	return "", false
}

func spanAttrInt(sp trace.Span, key string) (int64, bool) {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Int, true
		}
	}
	return 0, false
}

// checkWellFormed verifies the span list is a single tree: span 0 is
// the statement root and every other span's parent is an earlier span.
func checkWellFormed(t *testing.T, tr *trace.Trace) {
	t.Helper()
	if len(tr.Spans) == 0 {
		t.Fatal("trace has no spans")
	}
	if tr.Spans[0].Name != "statement" || tr.Spans[0].Parent != -1 {
		t.Fatalf("root span = %+v, want statement/-1", tr.Spans[0])
	}
	for i, sp := range tr.Spans[1:] {
		id := i + 1
		if sp.ID != id {
			t.Fatalf("span %d has ID %d", id, sp.ID)
		}
		if sp.Parent < 0 || sp.Parent >= id {
			t.Fatalf("span %d (%s) has orphan parent %d", id, sp.Name, sp.Parent)
		}
	}
}

// TestTraceSpanTreeSelectTrigger is the PR's acceptance walk: a sampled
// SELECT that fires a SELECT trigger yields one span tree covering
// transport read, plan-cache outcome, operator execution, the audit
// firing, and both WAL writes — and the same query ID appears verbatim
// inside the hash-chained audit record on disk, with the chain still
// verifying.
func TestTraceSpanTreeSelectTrigger(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	defer e.CloseWAL()
	if _, err := e.ExecScript(auditedHealthSchema); err != nil {
		t.Fatal(err)
	}

	s := e.NewSession()
	defer s.Close()
	s.SetUser("dr_mallory")
	s.SetTrace(true)
	s.NoteTransport("test", 123*time.Microsecond)
	res, err := s.Query("SELECT * FROM Patients WHERE Name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if res.QID == 0 {
		t.Fatal("result carries no query ID")
	}

	tr := e.TraceRing().Get(res.QID)
	if tr == nil {
		t.Fatalf("no trace retained for qid %d", res.QID)
	}
	if !tr.Sampled || tr.User != "dr_mallory" {
		t.Fatalf("trace header = qid=%d user=%s sampled=%t", tr.QID, tr.User, tr.Sampled)
	}
	checkWellFormed(t, tr)

	// A plain SELECT takes the normalized front end (a "normalize"
	// span); statements that miss it get "parse" instead.
	for _, want := range []string{
		"transport.read", "normalize", "plan", "execute",
		"audit.fire", "wal.audit.append", "wal.commit",
	} {
		if len(spansNamed(tr, want)) == 0 {
			t.Errorf("span %q missing from trace:\n%s", want, strings.Join(tr.Render(), "\n"))
		}
	}
	if proto, _ := spanAttrStr(spansNamed(tr, "transport.read")[0], "protocol"); proto != "test" {
		t.Errorf("transport.read protocol = %q", proto)
	}
	planSpans := spansNamed(tr, "plan")
	if len(planSpans) > 0 {
		if src, ok := spanAttrStr(planSpans[0], "cache"); !ok || src == "" {
			t.Errorf("plan span has no cache attr: %+v", planSpans[0])
		}
	}
	// The statement's own execute span (the trigger body contributes a
	// second, nested one) must contain at least one operator child.
	var topExec []trace.Span
	for _, sp := range spansNamed(tr, "execute") {
		if sp.Parent == 0 {
			topExec = append(topExec, sp)
		}
	}
	if len(topExec) != 1 {
		t.Fatalf("top-level execute spans = %+v, want exactly 1", topExec)
	}
	operators := 0
	for _, sp := range tr.Spans {
		if sp.Parent == topExec[0].ID {
			operators++
		}
	}
	if operators == 0 {
		t.Errorf("execute span has no operator children:\n%s", strings.Join(tr.Render(), "\n"))
	}
	fire := spansNamed(tr, "audit.fire")[0]
	if trig, _ := spanAttrStr(fire, "trigger"); trig != "Log_Alice" {
		t.Errorf("audit.fire trigger = %q, want Log_Alice", trig)
	}

	// The query ID must be inside the on-disk hash-chained audit record.
	raw, err := os.ReadFile(filepath.Join(dir, "audit", "000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ScanBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	var match *wal.Audit
	for _, rec := range recs {
		if rec.Type == wal.RecAudit && rec.Audit.QID == res.QID {
			match = rec.Audit
		}
	}
	if match == nil {
		t.Fatalf("no audit record carries qid %d", res.QID)
	}
	if match.User != "dr_mallory" || match.Expr != "Audit_Alice" || len(match.IDs) == 0 {
		t.Fatalf("audit record = %+v", match)
	}
	rep, err := e.VerifyAuditLog()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Fatalf("audit chain invalid after traced query: %s", rep.Reason)
	}
}

// TestTraceParallelWorkers (run under -race in CI): a parallel query's
// trace is one well-formed tree with worker spans attributed to their
// operators and morsel counts that agree between workers and the
// exchange's merged stats.
func TestTraceParallelWorkers(t *testing.T) {
	e := newHealthDB(t)
	e.SetDefaultWorkers(8)
	e.SetParallelMinRows(1)
	before := e.StatsSnapshot()["morsels_dispatched"]

	s := e.NewSession()
	defer s.Close()
	s.SetTrace(true)
	res, err := s.Query("SELECT Name FROM Patients WHERE Age > 30")
	if err != nil {
		t.Fatal(err)
	}
	if e.StatsSnapshot()["parallel_queries"] == 0 {
		t.Skip("planner declined parallel execution on this host")
	}

	tr := e.TraceRing().Get(res.QID)
	if tr == nil {
		t.Fatalf("no trace retained for qid %d", res.QID)
	}
	checkWellFormed(t, tr)

	// Every worker span must be parented to an operator span that
	// declares workers, and per-parent morsel counts must sum to the
	// parent's merged total — a torn merge or an orphan worker span
	// would break one of these.
	workerSpans := spansNamed(tr, "worker")
	if len(workerSpans) == 0 {
		t.Fatalf("parallel query trace has no worker spans:\n%s", strings.Join(tr.Render(), "\n"))
	}
	morselsByParent := map[int]int64{}
	for _, ws := range workerSpans {
		parent := tr.Spans[ws.Parent]
		if n, ok := spanAttrInt(parent, "workers"); !ok || n < 1 {
			t.Fatalf("worker span parented to non-parallel operator %+v", parent)
		}
		m, _ := spanAttrInt(ws, "morsels")
		morselsByParent[ws.Parent] += m
	}
	// Morsels are claimed at the fragment's scan kernel; other fragment
	// operators legitimately report none.
	var traceMorsels int64
	for parent, sum := range morselsByParent {
		want, ok := spanAttrInt(tr.Spans[parent], "morsels")
		if !ok {
			if sum != 0 {
				t.Errorf("operator %s: workers claim %d morsels but merged stats have none",
					tr.Spans[parent].Name, sum)
			}
			continue
		}
		if sum != want {
			t.Errorf("operator %s: worker morsels sum %d, merged stats say %d",
				tr.Spans[parent].Name, sum, want)
		}
		traceMorsels += sum
	}
	if delta := e.StatsSnapshot()["morsels_dispatched"] - before; delta != traceMorsels {
		t.Errorf("trace accounts for %d morsels, engine dispatched %d", traceMorsels, delta)
	}
}

// TestTraceTailCapture: slow and errored statements are retained even
// with sampling off — slow ones as coarse phase-clock trees, errored
// ones with the error message.
func TestTraceTailCapture(t *testing.T) {
	e := newHealthDB(t)
	e.SetSlowQueryThreshold(time.Nanosecond) // everything is slow
	res := mustQuery(t, e, "SELECT Name FROM Patients WHERE Age > 30")
	if res.QID == 0 {
		t.Fatal("no qid on tail-captured query")
	}
	tr := e.TraceRing().Get(res.QID)
	if tr == nil {
		t.Fatal("slow statement not retained")
	}
	if tr.Sampled {
		t.Fatal("tail capture must not claim full sampling")
	}
	checkWellFormed(t, tr)
	if len(tr.Spans) < 2 || len(tr.Phases) == 0 {
		t.Fatalf("coarse trace = spans %+v phases %v", tr.Spans, tr.Phases)
	}
	if tr.Phases["execute"] == 0 {
		t.Fatalf("phases = %v, want execute time", tr.Phases)
	}

	// A SELECT that arrives parsed (ExecMulti, the pgwire simple path)
	// is still normalized for the plan cache, and that time is charged
	// to its normalize phase.
	var qid uint64
	err := e.DefaultSession().ExecMulti("SELECT Name FROM Patients WHERE Age > 40", func(_ ast.Stmt, r *Result, err error) bool {
		if err != nil {
			t.Fatal(err)
		}
		qid = r.QID
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := e.TraceRing().Get(qid); tr == nil || tr.Phases["normalize"] == 0 {
		t.Fatalf("ExecMulti SELECT: retained trace %+v, want a normalize phase", tr)
	}

	e.SetSlowQueryThreshold(0)
	if _, err := e.Query("SELECT * FROM NoSuchTable"); err == nil {
		t.Fatal("expected error")
	}
	snap := e.TraceRing().Snapshot()
	if len(snap) == 0 || snap[0].Err == "" {
		t.Fatalf("errored statement not retained with its error: %+v", snap)
	}
}

// TestTraceRingEvictionCounters: overflowing the ring moves the
// eviction counter, and sampling moves the sampled counter.
func TestTraceRingEvictionCounters(t *testing.T) {
	e := newHealthDB(t)
	e.SetTraceSampling(1)
	const extra = 5
	for i := 0; i < DefaultTraceRingCap+extra; i++ {
		mustQuery(t, e, "SELECT Name FROM Patients WHERE PatientID = 1")
	}
	snap := e.StatsSnapshot()
	if snap["traces_sampled"] < DefaultTraceRingCap+extra {
		t.Fatalf("traces_sampled = %d, want >= %d", snap["traces_sampled"], DefaultTraceRingCap+extra)
	}
	if snap["trace_ring_evictions"] < extra {
		t.Fatalf("trace_ring_evictions = %d, want >= %d", snap["trace_ring_evictions"], extra)
	}
	if snap["trace_ring_traces"] != DefaultTraceRingCap {
		t.Fatalf("trace_ring_traces = %d, want full ring %d", snap["trace_ring_traces"], DefaultTraceRingCap)
	}
	if got := e.TraceRing().Len(); got != DefaultTraceRingCap {
		t.Fatalf("ring len = %d", got)
	}
}

// TestTraceMetricsExposition: the new families — sampled/eviction
// counters, ring gauge, and the WAL fsync histogram — appear in the
// Prometheus exposition when a WAL is attached with metrics.
func TestTraceMetricsExposition(t *testing.T) {
	dir := t.TempDir()
	e := New()
	m, rec, err := wal.Open(dir, wal.Options{
		Sync:    wal.SyncAlways,
		Metrics: wal.NewMetrics(e.Metrics()),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Recover(rec); err != nil {
		t.Fatal(err)
	}
	e.AttachWAL(m)
	defer e.CloseWAL()
	e.SetTraceSampling(1)
	if _, err := e.ExecScript(auditedHealthSchema); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice'")

	var b strings.Builder
	e.Metrics().WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		"auditdb_traces_sampled_total",
		"auditdb_trace_ring_evictions_total",
		"auditdb_trace_ring_traces",
		"# TYPE auditdb_wal_fsync_seconds histogram",
		`auditdb_wal_fsync_seconds_bucket{le="+Inf"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	snap := e.StatsSnapshot()
	if snap["wal_fsync_seconds_count"] == 0 {
		t.Errorf("wal_fsync_seconds_count = 0 after SyncAlways commits; stats = %v", snap)
	}
}

// tracedSession returns a session over the audited health database
// with every statement sampled.
func tracedSession(t *testing.T) (*Engine, *Session) {
	t.Helper()
	e := newAuditedHealthDB(t)
	s := e.NewSession()
	t.Cleanup(func() { s.Close() })
	s.SetTrace(true)
	return e, s
}

func retained(t *testing.T, e *Engine, res *Result) *trace.Trace {
	t.Helper()
	tr := e.TraceRing().Get(res.QID)
	if tr == nil {
		t.Fatalf("no trace retained for qid %d", res.QID)
	}
	return tr
}

// TestTraceParseAfterFailedParse: a failed parse is charged to its own
// statement, never to the next one — here a plan-cache hit that does
// not parse at all.
func TestTraceParseAfterFailedParse(t *testing.T) {
	e, s := tracedSession(t)
	const q = "SELECT Name FROM Patients WHERE PatientID = 2"
	if _, err := s.Exec(q); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Exec("SELEC Name FROM Patients"); err == nil {
		t.Fatal("expected a parse error")
	}
	res, err := s.Exec(q)
	if err != nil {
		t.Fatal(err)
	}
	tr := retained(t, e, res)
	if d := tr.Phases["parse"]; d != 0 {
		t.Fatalf("cache hit charged %dns of parse: %v", d, tr.Phases)
	}
	if len(spansNamed(tr, "parse")) != 0 {
		t.Fatalf("cache hit has a parse span:\n%s", strings.Join(tr.Render(), "\n"))
	}
}

// TestTraceRefusedRunConsumesTransport: a Prepared.Run refused for
// arity consumes the transport note it was handed, so the next
// in-process statement has no transport phase.
func TestTraceRefusedRunConsumesTransport(t *testing.T) {
	e, s := tracedSession(t)
	p, err := s.Prepare("SELECT Name FROM Patients WHERE PatientID = ?")
	if err != nil {
		t.Fatal(err)
	}
	s.NoteTransport("test", 123*time.Millisecond)
	if _, err := p.Run(); err == nil {
		t.Fatal("expected an arity error")
	}
	res, err := s.Exec("SELECT Name FROM Patients WHERE PatientID = 3")
	if err != nil {
		t.Fatal(err)
	}
	tr := retained(t, e, res)
	if d, ok := tr.Phases["transport"]; ok {
		t.Fatalf("in-process Exec charged %dns of transport: %v", d, tr.Phases)
	}
	// The refused call itself carries the note.
	snap := e.TraceRing().Snapshot()
	if len(snap) < 2 || snap[1].Err == "" || snap[1].Phases["transport"] != int64(123*time.Millisecond) {
		t.Fatalf("the refused Run's trace does not carry the note: %+v", snap)
	}
}

// TestTraceParseErrorRetained: a statement that fails to parse is a
// statement — it gets a fresh qid and a retained error trace, through
// every front door that parses.
func TestTraceParseErrorRetained(t *testing.T) {
	e := newAuditedHealthDB(t)
	s := e.NewSession()
	defer s.Close()
	last := mustQuery(t, e, "SELECT Name FROM Patients WHERE PatientID = 1").QID
	txn := s.Begin()
	defer txn.Rollback()
	for name, run := range map[string]func(string) error{
		"Exec":  func(q string) error { _, err := s.Exec(q); return err },
		"Query": func(q string) error { _, err := s.Query(q); return err },
		"ExecMulti": func(q string) error {
			return s.ExecMulti(q, func(ast.Stmt, *Result, error) bool { return true })
		},
		"Txn.Exec": func(q string) error { _, err := txn.Exec(q); return err },
	} {
		bad := "SELEC Name FROM Patients -- " + name
		err := run(bad)
		if err == nil {
			t.Fatalf("%s: expected a parse error", name)
		}
		snap := e.TraceRing().Snapshot()
		if len(snap) == 0 {
			t.Fatalf("%s: parse error %q retained no trace", name, err)
		}
		tr := snap[0]
		if tr.SQL != bad || tr.Err != err.Error() || tr.QID <= last {
			t.Fatalf("%s: newest trace = qid %d sql %q err %q, want a fresh qid (> %d) for %q with %q",
				name, tr.QID, tr.SQL, tr.Err, last, bad, err)
		}
		if tr.Phases["parse"] == 0 {
			t.Fatalf("%s: parse error trace has no parse phase: %v", name, tr.Phases)
		}
		last = tr.QID
	}
}

// TestTraceFoldSensitiveNormalizedOnce: a SELECT the canonical cache
// declines (constant folding makes its plan literal-sensitive) is
// normalized once per execution, not again after parsing.
func TestTraceFoldSensitiveNormalizedOnce(t *testing.T) {
	e, s := tracedSession(t)
	for i := 0; i < 2; i++ {
		res, err := s.Exec("SELECT Name FROM Patients WHERE 1 = 1")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 5 {
			t.Fatalf("rows = %v", res.Rows)
		}
		tr := retained(t, e, res)
		if n := len(spansNamed(tr, "normalize")); n != 1 {
			t.Fatalf("execution %d: %d normalize spans, want 1:\n%s", i, n, strings.Join(tr.Render(), "\n"))
		}
		// Alice is in the result, so Log_Alice's body plans too, under
		// its audit.fire span; the statement's own plan is the root's.
		var plans []trace.Span
		for _, sp := range spansNamed(tr, "plan") {
			if sp.Parent == 0 {
				plans = append(plans, sp)
			}
		}
		if len(plans) != 1 {
			t.Fatalf("execution %d: top-level plan spans = %+v, want one", i, plans)
		}
		if src, _ := spanAttrStr(plans[0], "cache"); src != "miss" {
			t.Fatalf("execution %d: plan cache = %q, want miss", i, src)
		}
	}
}

// TestTraceTxnExecChargesParse: Txn.Exec is a front door like Exec —
// its parse lands in the statement's own record.
func TestTraceTxnExecChargesParse(t *testing.T) {
	e, s := tracedSession(t)
	txn := s.Begin()
	defer txn.Rollback()
	res, err := txn.Exec("INSERT INTO Disease VALUES (9, 'flu')")
	if err != nil {
		t.Fatal(err)
	}
	tr := retained(t, e, res)
	if tr.Phases["parse"] == 0 || len(spansNamed(tr, "parse")) != 1 {
		t.Fatalf("Txn.Exec parse not charged: phases %v\n%s", tr.Phases, strings.Join(tr.Render(), "\n"))
	}
}

// TestTraceMetricsAgree: the phase histograms are fed from the
// statement record, so with every statement retained their sums equal
// the sums of the retained traces' phases, and query latency counts
// one observation per top-level statement. EXPLAIN ANALYZE is a
// statement like any other: its compile lands in the plan phase and
// its run in the exec phase.
func TestTraceMetricsAgree(t *testing.T) {
	e := New()
	s := e.NewSession()
	defer s.Close()
	s.SetTrace(true)
	if _, err := s.ExecScript(auditedHealthSchema); err != nil {
		t.Fatal(err)
	}
	p, err := s.Prepare("SELECT Name FROM Patients WHERE PatientID = ?")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		for _, q := range []string{
			"SELECT Name FROM Patients WHERE PatientID = 2",                                         // hits after the first
			"SELECT * FROM Patients WHERE Name = 'Alice'",                                           // fires Log_Alice
			"SELECT Name FROM Patients WHERE 1 = 1",                                                 // fold-sensitive: compiled each time
			fmt.Sprintf("SELECT Age FROM Patients WHERE Age > %d ORDER BY Age LIMIT %d", 20+i, 1+i), // new shape each time
			fmt.Sprintf("INSERT INTO Disease VALUES (%d, 'flu')", 10+i),                             // fires nothing
			"EXPLAIN ANALYZE SELECT Name FROM Patients WHERE Age > 30",                              // a compile and a run
		} {
			planN, execN := e.planSeconds.Count(), e.execSeconds.Count()
			if _, err := s.Exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if strings.HasPrefix(q, "EXPLAIN") && (e.planSeconds.Count() != planN+1 || e.execSeconds.Count() != execN+1) {
				t.Errorf("%s: plan_seconds_count moved %d, exec_seconds_count %d; want 1 each",
					q, e.planSeconds.Count()-planN, e.execSeconds.Count()-execN)
			}
		}
		if _, err := s.ExecScript("SELECT COUNT(*) FROM Disease; SELECT Name FROM Patients WHERE Age < 30"); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(value.NewInt(int64(1 + i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Exec("SELEC broken"); err == nil {
		t.Fatal("expected a parse error")
	}

	traces := e.TraceRing().Snapshot()
	if len(traces) < 20 || e.traceRingEvictions.Load() != 0 {
		t.Fatalf("%d traces retained, %d evicted", len(traces), e.traceRingEvictions.Load())
	}
	var parse, plan, exec int64
	for _, tr := range traces {
		parse += tr.Phases["normalize"] + tr.Phases["parse"]
		plan += tr.Phases["plan"]
		exec += tr.Phases["execute"]
	}
	for _, c := range []struct {
		name  string
		h     *obs.Histogram
		trace int64
	}{
		{"parse", e.parseSeconds, parse},
		{"plan", e.planSeconds, plan},
		{"exec", e.execSeconds, exec},
	} {
		want := time.Duration(c.trace).Seconds()
		if c.trace == 0 || math.Abs(c.h.Sum()-want) > 1e-12 {
			t.Errorf("auditdb_%s_seconds sum = %.12f, traces sum to %.12f", c.name, c.h.Sum(), want)
		}
	}
	if n := e.queryLatency.Count(); n != int64(len(traces)) {
		t.Errorf("auditdb_query_latency_seconds count = %d, want one per statement (%d)", n, len(traces))
	}
}

// TestTraceSlowQueryLog: the slow-query log writes one line per
// top-level statement, from its record — the statement's qid, and the
// placement and audit counts of the statement and everything nested in
// it.
func TestTraceSlowQueryLog(t *testing.T) {
	e := newAuditedHealthDB(t)
	var buf bytes.Buffer
	e.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	e.SetSlowQueryThreshold(time.Nanosecond)
	slowLines := func() []string {
		var out []string
		for _, line := range strings.Split(buf.String(), "\n") {
			if strings.Contains(line, `msg="slow query"`) {
				out = append(out, line)
			}
		}
		buf.Reset()
		return out
	}
	for _, c := range []struct {
		sql, placement string
		audited        int
	}{
		// Select-join: exact. Log_Alice's body runs its own
		// INSERT ... SELECT, which must not log a second line.
		{"SELECT Name FROM Patients WHERE Name = 'Alice'", "exact", 1},
		{"SELECT D.Disease FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID", "conservative", 1},
		// Every top-level statement is logged, not only SELECTs.
		{"INSERT INTO Disease VALUES (9, 'flu')", "uninstrumented", 0},
	} {
		buf.Reset()
		res := mustExec(t, e, c.sql)
		lines := slowLines()
		if len(lines) != 1 {
			t.Fatalf("%s: %d slow-query lines, want 1:\n%s", c.sql, len(lines), strings.Join(lines, "\n"))
		}
		for _, want := range []string{
			fmt.Sprintf("qid=%d ", res.QID),
			"placement=" + c.placement,
			fmt.Sprintf("rows_audited=%d ", c.audited),
		} {
			if !strings.Contains(lines[0], want) {
				t.Errorf("%s: slow-query line lacks %q:\n%s", c.sql, want, lines[0])
			}
		}
		if c.audited > 0 && strings.Contains(lines[0], "rows_scanned=0 ") {
			t.Errorf("%s: no rows scanned:\n%s", c.sql, lines[0])
		}
	}
}
