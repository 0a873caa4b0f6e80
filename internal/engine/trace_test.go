package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/trace"
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

// TestTraceOffAllocBudget: with tracing machinery wired into every
// statement but sampling off, the warm fast path must stay within the
// same allocation budget TestWarmExecAllocBudget pinned before tracing
// existed — i.e. the off path adds zero allocations.
func TestTraceOffAllocBudget(t *testing.T) {
	e := newAuditedHealthDB(t)
	const q = "SELECT Name FROM Patients WHERE PatientID = 2"
	if _, err := e.Exec(q); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := e.Exec(q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 48 {
		t.Fatalf("warm Exec with tracing off allocates %.1f/op, want <= 48", allocs)
	}
}

// TestShowTraceStatements drives the SQL surface: SHOW TRACES lists
// retained traces, SHOW TRACE FOR renders one tree, and an unknown qid
// explains how to sample.
func TestShowTraceStatements(t *testing.T) {
	e := newAuditedHealthDB(t)
	e.SetTraceSampling(1)
	res := mustQuery(t, e, "SELECT Name FROM Patients WHERE Name = 'Alice'")
	if res.QID == 0 {
		t.Fatal("sampled query has no qid")
	}

	list := mustExec(t, e, "SHOW TRACES")
	if list.Columns[0] != "qid" {
		t.Fatalf("SHOW TRACES columns = %v", list.Columns)
	}
	found := false
	for _, row := range list.Rows {
		if uint64(row[0].Int()) == res.QID {
			found = true
			if row[6].Str() != "SELECT Name FROM Patients WHERE Name = 'Alice'" {
				t.Errorf("SHOW TRACES sql = %q", row[6].Str())
			}
		}
	}
	if !found {
		t.Fatalf("qid %d not in SHOW TRACES output %v", res.QID, list.Rows)
	}

	tree := mustExec(t, e, fmt.Sprintf("SHOW TRACE FOR %d", res.QID))
	if len(tree.Rows) < 2 || tree.Columns[0] != "trace" {
		t.Fatalf("SHOW TRACE FOR = %v", tree.Rows)
	}
	head := tree.Rows[0][0].Str()
	if !strings.Contains(head, fmt.Sprintf("qid=%d", res.QID)) {
		t.Fatalf("trace header = %q", head)
	}
	var full strings.Builder
	for _, row := range tree.Rows {
		full.WriteString(row[0].Str() + "\n")
	}
	for _, want := range []string{"statement", "execute", "audit.fire"} {
		if !strings.Contains(full.String(), want) {
			t.Errorf("rendered trace missing %q:\n%s", want, full.String())
		}
	}

	if _, err := e.Exec("SHOW TRACE FOR 99999999"); err == nil ||
		!strings.Contains(err.Error(), "no trace retained") {
		t.Fatalf("unknown qid error = %v", err)
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
