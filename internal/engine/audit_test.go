package engine

import (
	"strings"
	"testing"

	"auditdb/internal/core"
)

// auditSetup installs the paper's Audit_Alice expression (§II,
// Example 2.1) and a logging SELECT trigger (§II-C).
func auditSetup(t *testing.T) *Engine {
	t.Helper()
	e := newHealthDB(t)
	script := `
		CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice_Accesses ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("audit setup: %v", err)
	}
	return e
}

func logCount(t *testing.T, e *Engine) int {
	t.Helper()
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Log")
	return int(r.Rows[0][0].Int())
}

func TestSelectTriggerLogsAccess(t *testing.T) {
	e := auditSetup(t)
	e.SetUser("dr_mallory")
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice'")
	r := mustQuery(t, e, "SELECT UserID, PatientID FROM Log")
	if len(r.Rows) != 1 {
		t.Fatalf("log rows = %v", r.Rows)
	}
	if r.Rows[0][0].Str() != "dr_mallory" || r.Rows[0][1].Int() != 1 {
		t.Errorf("log entry = %v", r.Rows[0])
	}
}

func TestSelectTriggerNotFiredWithoutAccess(t *testing.T) {
	e := auditSetup(t)
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Bob'")
	if n := logCount(t, e); n != 0 {
		t.Errorf("log rows = %d, want 0", n)
	}
	// The log-reading query itself must not fire the trigger either.
	mustQuery(t, e, "SELECT COUNT(*) FROM Disease")
	if n := logCount(t, e); n != 0 {
		t.Errorf("log rows = %d after unrelated queries", n)
	}
}

func TestExample12SubqueryAccessDetected(t *testing.T) {
	// Example 1.2: both query forms access Alice's record; the second
	// hides it inside an EXISTS subexpression, so triggering on query
	// output alone would miss it. The audit operator inside the
	// subquery block catches it (Example 3.8(c) placement).
	e := auditSetup(t)

	mustQuery(t, e, `SELECT * FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND Name = 'Alice' AND Disease = 'cancer'`)
	if n := logCount(t, e); n != 1 {
		t.Fatalf("direct query: log rows = %d, want 1", n)
	}

	mustQuery(t, e, `SELECT 1 FROM Patients WHERE exists
		(SELECT * FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID AND Name = 'Alice' AND Disease = 'cancer')`)
	if n := logCount(t, e); n != 2 {
		t.Errorf("exists query: log rows = %d, want 2", n)
	}
}

func TestAccessedStateCardinalities(t *testing.T) {
	// All-patients audit expression: an SJ query's ACCESSED set under
	// hcn equals exactly the patients in the join result (Theorem 3.7).
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_All AS
			SELECT * FROM Patients WHERE PatientID > 0
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)

	r := mustQuery(t, e, `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`)
	if r.Accessed == nil {
		t.Fatal("no ACCESSED state")
	}
	if n := r.Accessed.Len("Audit_All"); n != 2 {
		t.Errorf("hcn auditIDs = %d, want 2 (Bob, Carol)", n)
	}

	// The leaf-node heuristic audits every patient that passes the
	// leaf (all 5): false positives relative to the join result.
	e.SetHeuristic(core.LeafNode)
	r = mustQuery(t, e, `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`)
	if n := r.Accessed.Len("Audit_All"); n != 5 {
		t.Errorf("leaf auditIDs = %d, want 5", n)
	}
}

func TestExample32HighestNodeFalseNegative(t *testing.T) {
	// Example 3.2: Bob is among the two youngest patients and does not
	// have flu. The record flows into the top-2 but not past the
	// post-top-k filter. highest-node placement misses Bob (false
	// negative); hcn places the operator below the top-k and catches
	// him.
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_All AS
			SELECT * FROM Patients WHERE PatientID > 0
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	q := `SELECT Y.PatientID, Y.Name FROM
		(SELECT PatientID, Name FROM Patients ORDER BY Age LIMIT 2) AS Y, Disease D
		WHERE Y.PatientID = D.PatientID AND D.Disease = 'flu'`

	e.SetHeuristic(core.HighestCommutativeNode)
	r := mustQuery(t, e, q)
	hcnIDs := r.Accessed.IDs("Audit_All")
	foundBob := false
	for _, id := range hcnIDs {
		if id.Int() == 2 {
			foundBob = true
		}
	}
	// Bob (PatientID=2) is the youngest; he enters the top-2, so no
	// false negative under hcn... but wait: Bob HAS flu in this DB.
	// Use Dave (29, diabetes): among two youngest (Bob 21, Dave 29),
	// Dave does not have flu, so he is filtered after the top-2.
	foundDave := false
	for _, id := range hcnIDs {
		if id.Int() == 4 {
			foundDave = true
		}
	}
	if !foundBob || !foundDave {
		t.Errorf("hcn must audit both top-2 patients, got %v", hcnIDs)
	}

	e.SetHeuristic(core.HighestNode)
	r = mustQuery(t, e, q)
	hnIDs := r.Accessed.IDs("Audit_All")
	for _, id := range hnIDs {
		if id.Int() == 4 {
			t.Errorf("highest-node should miss Dave (false negative), got %v", hnIDs)
		}
	}
}

// TestHighestNodeSkipsTriggerBody: the trigger body's read of ACCESSED
// exposes a PatientID column but scans no Patients, so highest-node
// placement must leave it uninstrumented; otherwise the body's own read
// re-fires the trigger until the cascade depth limit fails the query.
func TestHighestNodeSkipsTriggerBody(t *testing.T) {
	e := auditSetup(t)
	e.SetHeuristic(core.HighestNode)
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice'")
	if n := logCount(t, e); n != 1 {
		t.Errorf("log rows = %d, want 1 (Log_Alice_Accesses fires once)", n)
	}
}

// TestHighestNodeSkipsOtherTables: a query over Disease alone reads no
// patient record, so even under audit-all its Disease.PatientID values
// must not be recorded as accessed patients.
func TestHighestNodeSkipsOtherTables(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, `CREATE AUDIT EXPRESSION Audit_All AS
		SELECT * FROM Patients WHERE PatientID > 0
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`)
	e.SetAuditAll(true)
	e.SetHeuristic(core.HighestNode)
	r := mustQuery(t, e, "SELECT * FROM Disease")
	if r.Accessed != nil && r.Accessed.Len("Audit_All") != 0 {
		t.Errorf("Disease-only read recorded IDs %v", r.Accessed.IDs("Audit_All"))
	}
}

func TestExample39HavingFalsePositive(t *testing.T) {
	// Example 3.9: diseases with at least two patients. diabetes has
	// one (Dave); the HAVING clause filters that group, so Dave is NOT
	// accessed — but hcn's operator below the group-by still sees him:
	// a false positive the offline system must clear.
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_All AS
			SELECT * FROM Patients WHERE PatientID > 0
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	r := mustQuery(t, e, `
		SELECT D.Disease, COUNT(*) FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID
		GROUP BY D.Disease HAVING COUNT(*) >= 2`)
	ids := r.Accessed.IDs("Audit_All")
	foundDave := false
	for _, id := range ids {
		if id.Int() == 4 {
			foundDave = true
		}
	}
	if !foundDave {
		t.Errorf("hcn places the audit operator below the group-by, so Dave should appear (false positive); got %v", ids)
	}
}

func TestExample41NoContradictionFolding(t *testing.T) {
	// Example 4.1: the audit probe must never be folded with real
	// predicates. A query for PatientID = 3 with Audit_Alice installed
	// (Alice is 1) must still return its row.
	e := auditSetup(t)
	r := mustQuery(t, e, "SELECT * FROM Patients WHERE PatientID = 3")
	if len(r.Rows) != 1 || r.Rows[0][1].Str() != "Carol" {
		t.Fatalf("instrumentation changed query results: %v", r.Rows)
	}
	if n := logCount(t, e); n != 0 {
		t.Errorf("no access should be logged, got %d", n)
	}
}

func TestInstrumentationPreservesResults(t *testing.T) {
	// Golden invariant: for a battery of queries, instrumented and
	// uninstrumented executions return identical results.
	e := newHealthDB(t)
	queries := []string{
		"SELECT * FROM Patients ORDER BY PatientID",
		"SELECT Name FROM Patients WHERE Age BETWEEN 20 AND 40 ORDER BY Name",
		`SELECT P.Name, D.Disease FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID ORDER BY P.Name, D.Disease`,
		"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip ORDER BY Zip",
		"SELECT Name FROM Patients ORDER BY Age LIMIT 2",
		"SELECT DISTINCT Disease FROM Disease ORDER BY Disease",
		`SELECT Name FROM Patients P WHERE EXISTS
		 (SELECT 1 FROM Disease D WHERE D.PatientID = P.PatientID) ORDER BY Name`,
		`SELECT Name FROM Patients WHERE PatientID IN
		 (SELECT PatientID FROM Disease WHERE Disease = 'cancer') ORDER BY Name`,
	}
	var plain [][]string
	for _, q := range queries {
		r := mustQuery(t, e, q)
		plain = append(plain, renderRows(r))
	}
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_All AS
			SELECT * FROM Patients WHERE PatientID > 0
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	for _, h := range []core.Heuristic{core.LeafNode, core.HighestCommutativeNode, core.HighestNode} {
		e.SetHeuristic(h)
		for i, q := range queries {
			r := mustQuery(t, e, q)
			got := renderRows(r)
			if strings.Join(got, "\n") != strings.Join(plain[i], "\n") {
				t.Errorf("heuristic %v changed results of %q:\n got %v\nwant %v", h, q, got, plain[i])
			}
		}
	}
}

func renderRows(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row.String()
	}
	return out
}

func TestAuditExpressionMaintenance(t *testing.T) {
	e := auditSetup(t)
	ae, ok := e.Registry().Get("Audit_Alice")
	if !ok {
		t.Fatal("expression missing")
	}
	if ae.Cardinality() != 1 {
		t.Fatalf("initial cardinality = %d", ae.Cardinality())
	}
	// A second Alice arrives: the materialized ID view must follow.
	mustExec(t, e, "INSERT INTO Patients VALUES (7, 'Alice', 28, '10001')")
	if ae.Cardinality() != 2 {
		t.Errorf("cardinality after insert = %d", ae.Cardinality())
	}
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice'")
	if n := logCount(t, e); n != 2 {
		t.Errorf("log rows = %d, want 2 (both Alices)", n)
	}
	// Renaming the new Alice removes her from the view.
	mustExec(t, e, "UPDATE Patients SET Name = 'Alicia' WHERE PatientID = 7")
	if ae.Cardinality() != 1 {
		t.Errorf("cardinality after update = %d", ae.Cardinality())
	}
	mustExec(t, e, "DELETE FROM Patients WHERE PatientID = 1")
	if ae.Cardinality() != 0 {
		t.Errorf("cardinality after delete = %d", ae.Cardinality())
	}
}

// TestDeleteKeepsSharedNonKeyID: when the PARTITION BY column is not
// the primary key, two rows can hold one sensitive ID. Deleting one of
// them must leave the ID in the watch set, or a later read of the other
// row goes unlogged (a false negative, Claim 3.6). A fresh engine
// holding the surviving rows is the reference.
func TestDeleteKeepsSharedNonKeyID(t *testing.T) {
	setup := func(rows string) *Engine {
		e := New()
		if _, err := e.ExecScript(`
			CREATE TABLE T (ID INT PRIMARY KEY, K INT, V INT);
			INSERT INTO T VALUES ` + rows + `;
			CREATE TABLE Log (UserID VARCHAR(30), K INT);
			CREATE AUDIT EXPRESSION Audit_K AS
				SELECT * FROM T WHERE V > 10
				FOR SENSITIVE TABLE T, PARTITION BY K;
			CREATE TRIGGER Log_Access ON ACCESS TO Audit_K AS
				INSERT INTO Log SELECT userid(), K FROM ACCESSED;`); err != nil {
			t.Fatal(err)
		}
		return e
	}
	logged := func(e *Engine) []string {
		mustQuery(t, e, "SELECT * FROM T WHERE ID = 2")
		return renderRows(mustQuery(t, e, "SELECT K FROM Log"))
	}

	e := setup("(1, 5, 50), (2, 5, 60)")
	mustExec(t, e, "DELETE FROM T WHERE ID = 1")
	got := logged(e)
	want := logged(setup("(2, 5, 60)"))
	if strings.Join(got, ";") != strings.Join(want, ";") || len(want) != 1 {
		t.Errorf("after deleting a row that shares K = 5: logged %v, a fresh engine logs %v", got, want)
	}
}

func TestJoinAuditExpression(t *testing.T) {
	// Example 2.2: cancer patients are sensitive, defined via a join.
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_Cancer AS
			SELECT P.* FROM Patients P, Disease D
			WHERE P.PatientID = D.PatientID AND Disease = 'cancer'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	ae, _ := e.Registry().Get("Audit_Cancer")
	if ae.Cardinality() != 2 {
		t.Fatalf("cancer patients = %d, want 2", ae.Cardinality())
	}
	e.SetAuditAll(true)
	r := mustQuery(t, e, "SELECT * FROM Patients WHERE Zip = '10001'")
	if n := r.Accessed.Len("Audit_Cancer"); n != 1 {
		t.Errorf("accessed = %d, want 1 (Erin)", n)
	}
	// Join-defined views refresh on DML against either referenced
	// table.
	mustExec(t, e, "INSERT INTO Disease VALUES (2, 'cancer')")
	if ae.Cardinality() != 3 {
		t.Errorf("cardinality after disease insert = %d", ae.Cardinality())
	}
}

func TestLogCancerDeptAction(t *testing.T) {
	// §II-C: log the departments of accessed cancer patients.
	e := newHealthDB(t)
	script := `
		CREATE TABLE Departments (PatientID INT, DeptID INT);
		INSERT INTO Departments VALUES (1, 100), (5, 200), (2, 100);
		CREATE TABLE DeptLog (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), DeptID INT);
		CREATE AUDIT EXPRESSION Audit_Cancer AS
			SELECT P.* FROM Patients P, Disease D
			WHERE P.PatientID = D.PatientID AND Disease = 'cancer'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Cancer_Dept ON ACCESS TO Audit_Cancer AS
			INSERT INTO DeptLog
			SELECT DISTINCT now(), userid(), sqltext(), D.DeptID
			FROM ACCESSED A, Departments D
			WHERE A.PatientID = D.PatientID;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice' OR Name = 'Erin'")
	r := mustQuery(t, e, "SELECT DeptID FROM DeptLog ORDER BY DeptID")
	if len(r.Rows) != 2 || r.Rows[0][0].Int() != 100 || r.Rows[1][0].Int() != 200 {
		t.Errorf("dept log = %v", r.Rows)
	}
}

func TestNotifyCascade(t *testing.T) {
	// §II-C: a SELECT trigger writes the log; an INSERT trigger on the
	// log notifies when a user accesses too many patients.
	e := auditSetup(t)
	var notes []string
	e.OnNotify(func(m string) { notes = append(notes, m) })
	mustExec(t, e, `CREATE TRIGGER NotifyTrig ON Log AFTER INSERT AS
		IF (SELECT COUNT(DISTINCT PatientID) >= 1 FROM Log WHERE UserID = NEW.UserID)
		NOTIFY 'excessive access'`)
	e.SetUser("dr_mallory")
	mustQuery(t, e, "SELECT * FROM Patients WHERE Name = 'Alice'")
	if len(notes) != 1 || notes[0] != "excessive access" {
		t.Errorf("notifications = %v", notes)
	}
}

func TestMultipleAuditExpressionsSimultaneously(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE AUDIT EXPRESSION Audit_Seniors AS
			SELECT * FROM Patients WHERE Age >= 60
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	r := mustQuery(t, e, "SELECT * FROM Patients")
	if r.Accessed.Len("Audit_Alice") != 1 {
		t.Errorf("alice accessed = %d", r.Accessed.Len("Audit_Alice"))
	}
	if r.Accessed.Len("Audit_Seniors") != 1 {
		t.Errorf("seniors accessed = %d", r.Accessed.Len("Audit_Seniors"))
	}
	if exprs := r.Accessed.Expressions(); len(exprs) != 2 {
		t.Errorf("expressions = %v", exprs)
	}
}

func TestDropProtection(t *testing.T) {
	e := auditSetup(t)
	if _, err := e.Exec("DROP TABLE Patients"); err == nil {
		t.Error("dropping a sensitive table should fail")
	}
	if _, err := e.Exec("DROP AUDIT EXPRESSION Audit_Alice"); err == nil {
		t.Error("dropping an audit expression with triggers should fail")
	}
	mustExec(t, e, "DROP TRIGGER Log_Alice_Accesses")
	mustExec(t, e, "DROP AUDIT EXPRESSION Audit_Alice")
}

func TestExplainShowsAuditOperator(t *testing.T) {
	e := auditSetup(t)
	s, err := e.Explain("SELECT * FROM Patients WHERE Age > 30", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Audit(Audit_Alice") {
		t.Errorf("explain missing audit operator:\n%s", s)
	}
	s, err = e.Explain("SELECT * FROM Patients WHERE Age > 30", false)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s, "Audit(") {
		t.Errorf("uninstrumented explain has audit operator:\n%s", s)
	}
}
