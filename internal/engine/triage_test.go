package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"auditdb/internal/triage"
)

// triageHealthDB builds a durable engine with the paper's example
// (Alice has a Disease row), an audit expression carrying a PRIORITY,
// an ON ACCESS trigger, and the triage service running.
func triageHealthDB(t *testing.T, dir string, cfg triage.Config) *Engine {
	t.Helper()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT);
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
		CREATE TABLE Log (UserID VARCHAR(30), PatientID INT);
		INSERT INTO Patients VALUES (1, 'Alice', 34), (2, 'Bob', 21), (3, 'Carol', 47);
		INSERT INTO Disease VALUES (1, 'cancer'), (2, 'flu');
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID PRIORITY 3;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT userid(), PatientID FROM ACCESSED;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	e.ConfigureTriage(cfg)
	return e
}

func quiesceTriage(t *testing.T, e *Engine) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.triage.Quiesce(ctx); err != nil {
		t.Fatalf("triage quiesce: %v", err)
	}
}

// verifySpan returns the path and executions the triage.verify span
// retained for the firing of sql; ok=false when there is none.
func verifySpan(e *Engine, sql string) (path string, executions int64, ok bool) {
	for _, tr := range e.traceRing.Snapshot() {
		if tr.SQL != sql {
			continue
		}
		for _, sp := range tr.Spans {
			if sp.Name != "triage.verify" {
				continue
			}
			for _, a := range sp.Attrs {
				switch a.Key {
				case "path":
					path = a.Str
				case "executions":
					executions = a.Int
				}
			}
			return path, executions, true
		}
	}
	return "", 0, false
}

// TestTriageVerdictEndToEnd drives the full loop: a query fires the
// trigger, the firing is enqueued, a background worker signs its
// verdict, and the verdict lands in the hash chain, readable from
// sys.verdicts and covered by VERIFY AUDIT LOG.
func TestTriageVerdictEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 2})
	defer e.CloseWAL()

	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)

	st := e.triage.Stats()
	if st.Enqueued != 1 || st.Verdicts != 1 || st.Failed != 0 {
		t.Fatalf("triage stats: %+v", st)
	}

	r := mustExec(t, e, "SELECT * FROM sys.verdicts")
	if len(r.Rows) != 1 {
		t.Fatalf("sys.verdicts rows: %v", r.Rows)
	}
	row := r.Rows[0]
	cols := map[string]int{}
	for i, c := range r.Columns {
		cols[c] = i
	}
	if got := row[cols["outcome"]].Str(); got != "confirmed" {
		t.Fatalf("outcome = %q, want confirmed (the query really touched Alice)", got)
	}
	if got := row[cols["expression"]].Str(); got != "Audit_Alice" {
		t.Fatalf("expression = %q", got)
	}
	if row[cols["suspicious"]].Int() < 1 {
		t.Fatalf("suspicious = %v, want >= 1", row[cols["suspicious"]])
	}
	// Verdict (seq) chains directly after its audit record (audit_seq).
	if row[cols["seq"]].Int() <= row[cols["audit_seq"]].Int() {
		t.Fatalf("verdict seq %v not after audit seq %v", row[cols["seq"]], row[cols["audit_seq"]])
	}

	// The mixed audit+verdict chain must verify.
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() {
		t.Fatalf("VERIFY AUDIT LOG over a stream with verdicts: %v", v.Rows)
	}
	if v.Rows[0][1].Int() != 2 {
		t.Fatalf("chain records = %v, want 2 (audit + verdict)", v.Rows[0][1])
	}
}

// TestTriageRefutedVerdict pins when a read is refuted. A LEFT JOIN
// with Patients on the nullable side over-reports Alice: without her
// row, her Disease row comes back NULL-extended and projects the same
// result. That shape is not exact, so the worker replays it and
// refutes. Then a transaction reads Alice (the event is deferred to
// commit) and deletes her row before committing. The select-join read
// is exact, so the worker confirms it from the recorded IDs without
// running a query — the read happened, whatever the table holds by the
// time the worker arrives.
func TestTriageRefutedVerdict(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1})
	defer e.CloseWAL()

	const overReport = "SELECT D.Disease FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID"
	if _, err := e.Query(overReport); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)

	const read = "SELECT * FROM Patients WHERE Name = 'Alice'"
	txn := e.Begin()
	if _, err := txn.Query(read); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)

	r := mustExec(t, e, "SELECT * FROM sys.verdicts")
	if len(r.Rows) != 2 || r.Rows[0][2].Str() != "confirmed" || r.Rows[1][2].Str() != "refuted" {
		t.Fatalf("want confirmed (newest) then refuted, got %v", r.Rows)
	}
	if got := r.Rows[0][7].Int(); got != 1 {
		t.Fatalf("confirmed verdict stands on %d IDs, want 1", got)
	}
	for _, tc := range []struct {
		sql        string
		path       string
		executions int64
	}{
		{read, "static", 0},
		{overReport, "deletion", 3}, // leaf pass, baseline, one test
	} {
		if path, executions, ok := verifySpan(e, tc.sql); !ok || path != tc.path || executions != tc.executions {
			t.Errorf("%q: triage.verify path=%q executions=%d (found %v), want %q %d",
				tc.sql, path, executions, ok, tc.path, tc.executions)
		}
	}
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() || v.Rows[0][1].Int() != 4 {
		t.Fatalf("VERIFY AUDIT LOG: %v", v.Rows)
	}
}

func TestTriageQueueHoldsWhenDisabled(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 0})
	defer e.CloseWAL()
	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	// Workers=0: the trigger path must not enqueue at all (embedded
	// engines pay nothing), so the queue stays empty.
	r := mustExec(t, e, "SELECT * FROM sys.audit_queue")
	if len(r.Rows) != 0 {
		t.Fatalf("disabled triage still queued: %v", r.Rows)
	}
}

// TestTriageOverflowAccounting squeezes two firings through a
// one-slot queue and checks that nothing escapes the counted buckets:
// whatever the worker/enqueue interleaving, every event ends up as a
// chained verdict or an explicit drop. (Deterministic eviction order
// itself is pinned by the triage package's queue tests.)
func TestTriageOverflowAccounting(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1, QueueBound: 1})
	defer e.CloseWAL()
	script := `
		CREATE AUDIT EXPRESSION Audit_Bob AS
			SELECT * FROM Patients WHERE Name = 'Bob'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Bob ON ACCESS TO Audit_Bob AS
			INSERT INTO Log SELECT userid(), PatientID FROM ACCESSED;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Bob'"); err != nil {
		t.Fatal(err) // priority 0
	}
	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err) // priority 3
	}
	quiesceTriage(t, e)
	st := e.triage.Stats()
	if st.Enqueued != 2 {
		t.Fatalf("enqueued = %d, want 2", st.Enqueued)
	}
	if st.Enqueued != st.Verdicts+st.Dropped+st.Failed+uint64(st.Pending) {
		t.Fatalf("accounting identity broken: %+v", st)
	}
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() {
		t.Fatalf("VERIFY AUDIT LOG: %v", v.Rows)
	}
}

// TestTriagePrioritySurvivesDumpAndReplay pins PRIORITY through the
// catalog, the dump renderer, and durable recovery.
func TestTriagePrioritySurvivesDumpAndReplay(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{})
	dump := dumpString(t, e)
	if !strings.Contains(dump, "PRIORITY 3") {
		t.Fatalf("dump lost the PRIORITY clause:\n%s", dump)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	e2 := openDurable(t, dir)
	defer e2.CloseWAL()
	if got := dumpString(t, e2); !strings.Contains(got, "PRIORITY 3") {
		t.Fatalf("replayed catalog lost the PRIORITY clause:\n%s", got)
	}
	meta, ok := e2.cat.AuditExpr("Audit_Alice")
	if !ok || meta.Priority != 3 {
		t.Fatalf("recovered priority: ok=%v meta=%+v", ok, meta)
	}
}

// TestTriageRollbackLeavesNoQueuedWork mirrors
// TestAuditTrailSurvivesRollback from the event queue's side: the
// audit record survives the rollback, but the deferred triage event is
// discarded — a verdict must never be issued for a read that was
// rolled back.
func TestTriageRollbackLeavesNoQueuedWork(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1})
	defer e.CloseWAL()

	txn := e.Begin()
	if _, err := txn.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)
	if st := e.triage.Stats(); st.Enqueued != 0 || st.Verdicts != 0 {
		t.Fatalf("rolled-back read produced triage work: %+v", st)
	}
	// The audit record itself still chained (§II tamper resistance).
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() || v.Rows[0][1].Int() != 1 {
		t.Fatalf("audit record lost with the rollback: %v", v.Rows)
	}

	// The commit path releases the deferred event.
	txn = e.Begin()
	if _, err := txn.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)
	if st := e.triage.Stats(); st.Enqueued != 1 || st.Verdicts != 1 {
		t.Fatalf("committed read did not verify: %+v", st)
	}
}

// TestTriageStressAccounting floods a 64-slot queue from 8 concurrent
// sessions and checks the accounting identity
// enqueued == verdicts + dropped + failed + pending exactly.
func TestTriageStressAccounting(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 2, QueueBound: 64})
	defer e.CloseWAL()

	const sessions, each = 8, 25
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			s.SetUser(fmt.Sprintf("user%d", n))
			for j := 0; j < each; j++ {
				if _, err := s.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
					t.Errorf("session %d query %d: %v", n, j, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Identity holds mid-drain, before quiescing...
	st := e.triage.Stats()
	if st.Enqueued != st.Verdicts+st.Dropped+st.Failed+uint64(st.Pending) {
		t.Fatalf("identity broken mid-drain: %+v", st)
	}
	quiesceTriage(t, e)
	// ...and after: everything enqueued is verified or counted dropped.
	st = e.triage.Stats()
	if st.Enqueued != sessions*each {
		t.Fatalf("enqueued = %d, want %d", st.Enqueued, sessions*each)
	}
	if st.Pending != 0 || st.Failed != 0 {
		t.Fatalf("drained stats: %+v", st)
	}
	if st.Enqueued != st.Verdicts+st.Dropped {
		t.Fatalf("identity broken after drain: %+v", st)
	}
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() {
		t.Fatalf("VERIFY AUDIT LOG after stress: %v", v.Rows)
	}
}

// TestTriageDoesNotPerturbAccessed: the ACCESSED set a query reports
// must be byte-identical on an engine with triage workers and one
// without — enqueueing rides after audit capture and never touches it.
func TestTriageDoesNotPerturbAccessed(t *testing.T) {
	e := triageHealthDB(t, t.TempDir(), triage.Config{Workers: 1})
	defer e.CloseWAL()
	plain := triageHealthDB(t, t.TempDir(), triage.Config{})
	defer plain.CloseWAL()

	render := func(r *Result) string {
		if r.Accessed == nil {
			return "<nil>"
		}
		var b strings.Builder
		for _, name := range r.Accessed.Expressions() {
			fmt.Fprintf(&b, "%s:", name)
			for _, id := range r.Accessed.IDs(name) {
				fmt.Fprintf(&b, " %s", id.String())
			}
			b.WriteString("\n")
		}
		return b.String()
	}

	const q = "SELECT * FROM Patients WHERE Name = 'Alice'"
	on := mustQuery(t, e, q)
	off := mustQuery(t, plain, q)
	if render(on) != render(off) {
		t.Fatalf("ACCESSED differs with triage on/off:\non:  %q\noff: %q", render(on), render(off))
	}
	if render(on) == "<nil>" {
		t.Fatal("query reported no ACCESSED set at all")
	}
	quiesceTriage(t, e)
	if st := e.triage.Stats(); st.Enqueued != 1 {
		t.Fatalf("triage engine enqueued %+v, want the one firing", st)
	}
	if st := plain.triage.Stats(); plain.triage.Enabled() || st.Enqueued != 0 {
		t.Fatalf("engine without triage workers enqueued: %+v", st)
	}
}

// TestTriageVerifySpanAndOfflineMetrics: a background verification
// says on its triage.verify span which path reached the verdict and
// what it cost, and /metrics carries the same accounting — a
// select-join firing is exact and confirmed statically with no
// execution, a DISTINCT firing replays and is deferred, by name, to
// the deletion test.
func TestTriageVerifySpanAndOfflineMetrics(t *testing.T) {
	e := triageHealthDB(t, t.TempDir(), triage.Config{Workers: 1})
	defer e.CloseWAL()

	want := []struct {
		sql        string
		path       string
		executions int64
	}{
		{"SELECT * FROM Patients WHERE Name = 'Alice'", "static", 0},
		{"SELECT DISTINCT Age FROM Patients", "deletion", 3}, // leaf pass, baseline, one test
	}
	for _, w := range want {
		if _, err := e.Query(w.sql); err != nil {
			t.Fatal(err)
		}
	}
	quiesceTriage(t, e)
	for _, w := range want {
		if path, executions, ok := verifySpan(e, w.sql); !ok || path != w.path || executions != w.executions {
			t.Errorf("%q: triage.verify path=%q executions=%d (found %v), want %q %d",
				w.sql, path, executions, ok, w.path, w.executions)
		}
	}

	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`auditdb_offline_verdicts_total{path="static"} 1`,
		`auditdb_offline_verdicts_total{path="deletion"} 1`,
		`auditdb_offline_executions_total 3`,
		`auditdb_offline_deferred_total{reason="distinct"} 1`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
	if strings.Contains(b.String(), `auditdb_offline_verdicts_total{path="lineage"}`) {
		t.Error("an exact firing was replayed through the offline auditor")
	}
}
