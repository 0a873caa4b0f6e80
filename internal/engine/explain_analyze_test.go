package engine

import (
	"strings"
	"testing"

	"auditdb/internal/offline"
)

// withAliceAudit adds the paper's Audit_Alice expression plus a logging
// ON ACCESS trigger to the healthcare fixture.
func withAliceAudit(t *testing.T, e *Engine) {
	t.Helper()
	if _, err := e.ExecScript(`
		CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
	`); err != nil {
		t.Fatal(err)
	}
}

func analyzeText(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	r := mustExec(t, e, sql)
	if len(r.Columns) != 1 || r.Columns[0] != "plan" {
		t.Fatalf("columns = %v", r.Columns)
	}
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row[0].Str())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExplainAnalyzeSideEffectFree is the tentpole guarantee: EXPLAIN
// ANALYZE executes the query for real (probes run, rows flow) but
// fires no trigger, records no ACCESSED state, and leaves the
// rows_audited, triggers_fired and queries counters untouched. It is
// a statement in the record, so what a run moves does move:
// statements, rows_scanned, the chunk counters and the plan and exec
// phase histograms.
func TestExplainAnalyzeSideEffectFree(t *testing.T) {
	e := newHealthDB(t)
	withAliceAudit(t, e)
	before := e.StatsSnapshot()

	text := analyzeText(t, e, "EXPLAIN ANALYZE SELECT * FROM Patients WHERE Age > 30")

	if !strings.Contains(text, "Audit(Audit_Alice") {
		t.Fatalf("analyze output missing audit operator:\n%s", text)
	}
	// Age > 30 keeps Alice (34), Carol (47), Erin (62): three probes,
	// one hit on Alice's partition key.
	if !strings.Contains(text, "probes=3 hits=1 distinct_ids=1") {
		t.Errorf("audit counters wrong:\n%s", text)
	}
	if !strings.Contains(text, "rows_scanned=5") {
		t.Errorf("execution footer missing rows_scanned=5:\n%s", text)
	}

	after := e.StatsSnapshot()
	if after["rows_audited"] != before["rows_audited"] {
		t.Errorf("rows_audited moved: %d -> %d", before["rows_audited"], after["rows_audited"])
	}
	if after["triggers_fired"] != before["triggers_fired"] {
		t.Errorf("triggers_fired moved: %d -> %d", before["triggers_fired"], after["triggers_fired"])
	}
	if after["queries"] != before["queries"] {
		t.Errorf("EXPLAIN ANALYZE counted as a query: %d -> %d", before["queries"], after["queries"])
	}
	if got := after["rows_scanned"] - before["rows_scanned"]; got != 5 {
		t.Errorf("rows_scanned delta = %d, want 5", got)
	}
	if r := mustQuery(t, e, "SELECT * FROM Log"); len(r.Rows) != 0 {
		t.Errorf("EXPLAIN ANALYZE wrote %d Log rows", len(r.Rows))
	}
}

// TestExplainAnalyzePerNodeCounters checks the per-operator rows and
// the audit probe arithmetic against the known healthcare
// cardinalities, and that the report agrees with both a real audited
// run and the exact offline auditor.
func TestExplainAnalyzePerNodeCounters(t *testing.T) {
	e := newHealthDB(t)
	withAliceAudit(t, e)
	const q = "SELECT Name FROM Patients WHERE Age > 30"

	text := analyzeText(t, e, "EXPLAIN ANALYZE "+q)
	// Scan emits the three post-predicate rows; the audit operator
	// probes each and the projection forwards them.
	for _, want := range []string{
		"Scan(Patients",
		"probes=3 hits=1 distinct_ids=1",
		"rows=3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output missing %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "never executed") {
		t.Errorf("unexpected never-executed node:\n%s", text)
	}

	// A real audited run must record exactly the distinct IDs the
	// analyze report counted.
	r := mustQuery(t, e, q)
	if r.Accessed == nil || r.Accessed.Len("Audit_Alice") != 1 {
		t.Fatalf("real run accessed = %v", r.Accessed)
	}

	// And the exact offline auditor agrees: only Alice's tuple
	// influences the result.
	ae, ok := e.Registry().Get("Audit_Alice")
	if !ok {
		t.Fatal("Audit_Alice not registered")
	}
	literal := offline.New(e.Catalog(), e.Store())
	literal.NoSkip = true // Def 2.3 itself, not a second hcn-placed run
	rep, err := literal.Audit(q, ae)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AccessedIDs) != 1 || rep.AccessedIDs[0].I != 1 {
		t.Fatalf("offline ground truth = %v", rep.AccessedIDs)
	}
	if rep.RowsScanned == 0 {
		t.Errorf("offline report did not count rows scanned")
	}
}

// TestExplainAnalyzeConservativeTopK exercises a plan where the audit
// operator is pinned below a non-commutative LIMIT: the analyze report
// still shows the operator with its probe counts, and a top-k that
// excludes Alice shows the over-report (probe hits without the row
// surviving to the result).
func TestExplainAnalyzeTopK(t *testing.T) {
	e := newHealthDB(t)
	withAliceAudit(t, e)
	// Oldest two patients: Erin (62), Carol (47) — Alice is sorted out.
	text := analyzeText(t, e, "EXPLAIN ANALYZE SELECT Name FROM Patients ORDER BY Age DESC LIMIT 2")
	if !strings.Contains(text, "Audit(Audit_Alice") {
		t.Fatalf("analyze output missing audit operator:\n%s", text)
	}
	if !strings.Contains(text, "Limit(2)") {
		t.Fatalf("analyze output missing limit:\n%s", text)
	}
	if r := mustQuery(t, e, "SELECT * FROM Log"); len(r.Rows) != 0 {
		t.Errorf("EXPLAIN ANALYZE of top-k wrote %d Log rows", len(r.Rows))
	}
}

// TestPlacementOutcomeCounters checks the placement_exact vs
// placement_conservative classification: a select-join query counts
// exact (Theorem 3.7); a top-k query whose operator is blocked below
// LIMIT counts conservative.
func TestPlacementOutcomeCounters(t *testing.T) {
	e := newHealthDB(t)
	withAliceAudit(t, e)
	before := e.StatsSnapshot()

	mustQuery(t, e, "SELECT Name FROM Patients WHERE Age > 30")
	after := e.StatsSnapshot()
	if d := after["placement_exact"] - before["placement_exact"]; d != 1 {
		t.Errorf("placement_exact delta = %d, want 1", d)
	}
	if d := after["placement_conservative"] - before["placement_conservative"]; d != 0 {
		t.Errorf("placement_conservative delta = %d, want 0", d)
	}

	mustQuery(t, e, "SELECT Name FROM Patients ORDER BY Age DESC LIMIT 2")
	final := e.StatsSnapshot()
	if d := final["placement_conservative"] - after["placement_conservative"]; d != 1 {
		t.Errorf("placement_conservative delta = %d, want 1", d)
	}

	// Per-table audited rows: the first query touched Alice's record;
	// the top-k query audits her again because the conservatively
	// placed operator below LIMIT observes every sorted row even
	// though Alice is cut from the result — the paper's over-report
	// (Theorem 3.7 boundary), which is exactly what the conservative
	// counter flags.
	if got := final["rows_audited_by_table_patients"]; got != 2 {
		t.Errorf("rows_audited_by_table_patients = %d, want 2", got)
	}
	if final["rows_audited"] < 1 {
		t.Errorf("rows_audited = %d, want >= 1", final["rows_audited"])
	}

	// The counters read offline.Classify, the auditor's lineage rule:
	// an outer join with Patients on the nullable side may over-report
	// (a NULL-extended row stands in for a deleted match), a COUNT(*)
	// aggregate does not, and a second expression's operator on the
	// same table leaves a select-join exact.
	if _, err := e.Exec(`CREATE AUDIT EXPRESSION Audit_Old AS
		SELECT * FROM Patients WHERE Age > 40
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql      string
		auditAll bool
		exact    bool
	}{
		{"SELECT D.Disease FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID", false, false},
		{"SELECT COUNT(*) FROM Patients WHERE Name = 'Alice'", false, true},
		{"SELECT P.Name, D.Disease FROM Patients P, Disease D WHERE P.PatientID = D.PatientID", true, true},
	} {
		e.SetAuditAll(tc.auditAll)
		before := e.StatsSnapshot()
		mustQuery(t, e, tc.sql)
		after := e.StatsSnapshot()
		exact := after["placement_exact"] - before["placement_exact"]
		conservative := after["placement_conservative"] - before["placement_conservative"]
		wantExact := int64(0)
		if tc.exact {
			wantExact = 1
		}
		if exact != wantExact || conservative != 1-wantExact {
			t.Errorf("%q: placement_exact delta %d, placement_conservative delta %d; want exact=%v",
				tc.sql, exact, conservative, tc.exact)
		}
	}
}

// TestExplainAnalyzeUninstrumented covers the no-audit path: the
// report renders plain operator counters.
func TestExplainAnalyzeUninstrumented(t *testing.T) {
	e := newHealthDB(t)
	text := analyzeText(t, e, "EXPLAIN ANALYZE SELECT COUNT(*) FROM Patients")
	for _, want := range []string{"Aggregate", "rows=1", "Execution: rows=1"} {
		if !strings.Contains(text, want) {
			t.Errorf("analyze output missing %q:\n%s", want, text)
		}
	}
}

// TestEngineExplainAnalyzeHelper drives the string-returning facade.
func TestEngineExplainAnalyzeHelper(t *testing.T) {
	e := newHealthDB(t)
	withAliceAudit(t, e)
	out, err := e.ExplainAnalyze("SELECT * FROM Patients WHERE Age > 30")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "probes=3 hits=1 distinct_ids=1") {
		t.Errorf("helper output:\n%s", out)
	}
}
