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

// triageHealthDB builds a durable engine with the paper's example, an
// audit expression carrying a PRIORITY, an ON ACCESS trigger, and the
// triage service running.
func triageHealthDB(t *testing.T, dir string, cfg triage.Config) *Engine {
	t.Helper()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT);
		CREATE TABLE Log (UserID VARCHAR(30), PatientID INT);
		INSERT INTO Patients VALUES (1, 'Alice', 34), (2, 'Bob', 21), (3, 'Carol', 47);
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
	if err := e.Triage().Quiesce(ctx); err != nil {
		t.Fatalf("triage quiesce: %v", err)
	}
}

// TestTriageVerdictEndToEnd drives the full loop: a query fires the
// trigger, the firing is scored and enqueued, a background worker
// re-derives it with the exact offline auditor, and the signed verdict
// lands in the hash chain, readable via SHOW AUDIT VERDICTS and
// covered by VERIFY AUDIT LOG.
func TestTriageVerdictEndToEnd(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 2})
	defer e.CloseWAL()

	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)

	st := e.Triage().Stats()
	if st.Enqueued != 1 || st.Verdicts != 1 || st.Failed != 0 {
		t.Fatalf("triage stats: %+v", st)
	}

	r := mustExec(t, e, "SHOW AUDIT VERDICTS")
	if len(r.Rows) != 1 {
		t.Fatalf("SHOW AUDIT VERDICTS rows: %v", r.Rows)
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

// TestTriageRefutedVerdict forces a refutation deterministically: a
// transaction reads Alice (firing the trigger; the triage event is
// deferred to commit) and then deletes her row. By the time the
// deferred event reaches a worker, the offline re-derivation of the
// recorded statement accesses nothing — the verdict is refuted.
func TestTriageRefutedVerdict(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1})
	defer e.CloseWAL()

	txn := e.Begin()
	if _, err := txn.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	quiesceTriage(t, e)

	r := mustExec(t, e, "SHOW AUDIT VERDICTS")
	if len(r.Rows) != 1 || r.Rows[0][2].Str() != "refuted" {
		t.Fatalf("want one refuted verdict, got %v", r.Rows)
	}
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() {
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
	r := mustExec(t, e, "SHOW AUDIT QUEUE")
	if len(r.Rows) != 0 {
		t.Fatalf("disabled triage still queued: %v", r.Rows)
	}
}

// TestTriageBudgetSkip pins the budget semantics: past the per-minute
// budget, events still get chained verdicts — skipped-budget — instead
// of silently vanishing.
func TestTriageBudgetSkip(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1, BudgetPerMin: 1})
	defer e.CloseWAL()

	for i := 0; i < 3; i++ {
		if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
			t.Fatal(err)
		}
	}
	quiesceTriage(t, e)

	r := mustExec(t, e, "SHOW AUDIT VERDICTS")
	if len(r.Rows) != 3 {
		t.Fatalf("want 3 verdicts, got %d", len(r.Rows))
	}
	byOutcome := map[string]int{}
	for _, row := range r.Rows {
		byOutcome[row[2].Str()]++
	}
	if byOutcome["confirmed"] != 1 || byOutcome["skipped-budget"] != 2 {
		t.Fatalf("outcomes = %v, want 1 confirmed + 2 skipped-budget", byOutcome)
	}
	// Skipped verdicts are chained records too: the full stream verifies.
	v := mustExec(t, e, "VERIFY AUDIT LOG")
	if !v.Rows[0][0].Bool() || v.Rows[0][1].Int() != 6 {
		t.Fatalf("VERIFY AUDIT LOG: %v", v.Rows)
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
	st := e.Triage().Stats()
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

// TestTriagePriorityScoreDominates checks the scoring surface end to
// end: PRIORITY 3 must outscore the default even when the default
// expression accessed as many rows.
func TestTriagePriorityScoreDominates(t *testing.T) {
	svc := triage.NewService(triage.Config{}, nil, nil, nil)
	now := time.Now().UnixNano()
	hi := svc.Score("u", 3, 1, now)
	lo := svc.Score("u", 0, 1, now+int64(time.Second))
	if hi <= lo {
		t.Fatalf("PRIORITY 3 score %v not above default %v", hi, lo)
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
	if st := e.Triage().Stats(); st.Enqueued != 0 || st.Verdicts != 0 {
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
	if st := e.Triage().Stats(); st.Enqueued != 1 || st.Verdicts != 1 {
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
	st := e.Triage().Stats()
	if st.Enqueued != st.Verdicts+st.Dropped+st.Failed+uint64(st.Pending) {
		t.Fatalf("identity broken mid-drain: %+v", st)
	}
	quiesceTriage(t, e)
	// ...and after: everything enqueued is verified or counted dropped.
	st = e.Triage().Stats()
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
// must be byte-identical with triage on and off — scoring and
// enqueueing ride after audit capture and never touch it.
func TestTriageDoesNotPerturbAccessed(t *testing.T) {
	dir := t.TempDir()
	e := triageHealthDB(t, dir, triage.Config{Workers: 1})
	defer e.CloseWAL()

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
	e.SetTriage(false)
	off := mustQuery(t, e, q)
	if render(on) != render(off) {
		t.Fatalf("ACCESSED differs with triage on/off:\non:  %q\noff: %q", render(on), render(off))
	}
	if render(on) == "<nil>" {
		t.Fatal("query reported no ACCESSED set at all")
	}
	e.SetTriage(true)
	quiesceTriage(t, e)
	// Only the triage-on firing produced an event.
	if st := e.Triage().Stats(); st.Enqueued != 1 {
		t.Fatalf("SET triage = off still enqueued: %+v", st)
	}
}

// TestTriageSessionToggleInheritance: sessions snapshot the default
// session's triage flag at creation, like the other session knobs.
func TestTriageSessionToggleInheritance(t *testing.T) {
	e := New()
	s1 := e.NewSession()
	defer s1.Close()
	if !s1.TriageOn() {
		t.Fatal("fresh session must default to triage on")
	}
	e.SetTriage(false)
	s2 := e.NewSession()
	defer s2.Close()
	if s2.TriageOn() {
		t.Fatal("session created after SET triage = off must inherit off")
	}
	if !s1.TriageOn() {
		t.Fatal("existing session flipped by the default changing")
	}
	s2.SetTriage(true)
	if !s2.TriageOn() {
		t.Fatal("per-session toggle failed")
	}
}

// TestTriageVerifySpanAndOfflineMetrics: a background verification
// says on its triage.verify span which path reached the verdict and
// what it cost, and /metrics carries the same accounting — a
// select-join firing is decided by lineage in one execution, a
// DISTINCT firing is deferred, by name, to the deletion test.
func TestTriageVerifySpanAndOfflineMetrics(t *testing.T) {
	e := triageHealthDB(t, t.TempDir(), triage.Config{Workers: 1})
	defer e.CloseWAL()

	for _, sql := range []string{
		"SELECT * FROM Patients WHERE Name = 'Alice'",
		"SELECT DISTINCT Age FROM Patients",
	} {
		if _, err := e.Query(sql); err != nil {
			t.Fatal(err)
		}
	}
	quiesceTriage(t, e)

	want := map[string]struct {
		path       string
		executions int64
	}{
		"SELECT * FROM Patients WHERE Name = 'Alice'": {"lineage", 1},
		"SELECT DISTINCT Age FROM Patients":           {"deletion", 3}, // leaf pass, baseline, one test
	}
	seen := 0
	for _, tr := range e.traceRing.Snapshot() {
		for _, sp := range tr.Spans {
			if sp.Name != "triage.verify" {
				continue
			}
			seen++
			var path string
			var executions int64
			for _, a := range sp.Attrs {
				switch a.Key {
				case "path":
					path = a.Str
				case "executions":
					executions = a.Int
				}
			}
			if w := want[tr.SQL]; path != w.path || executions != w.executions {
				t.Errorf("%q: triage.verify path=%q executions=%d, want %q %d", tr.SQL, path, executions, w.path, w.executions)
			}
		}
	}
	if seen != 2 {
		t.Fatalf("%d triage.verify spans retained, want 2", seen)
	}

	var b strings.Builder
	if err := e.Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`auditdb_offline_verdicts_total{path="lineage"} 1`,
		`auditdb_offline_verdicts_total{path="deletion"} 1`,
		`auditdb_offline_executions_total 4`,
		`auditdb_offline_deferred_total{reason="distinct"} 1`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
