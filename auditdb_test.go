package auditdb

import (
	"strings"
	"testing"
)

func openHealth(t *testing.T) *DB {
	t.Helper()
	db := Open()
	_, err := db.ExecScript(`
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
		CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
		INSERT INTO Patients VALUES
			(1, 'Alice', 34, '48109'), (2, 'Bob', 21, '48109'),
			(3, 'Carol', 47, '98052'), (4, 'Dave', 29, '98052'), (5, 'Erin', 62, '10001');
		INSERT INTO Disease VALUES (1, 'cancer'), (2, 'flu'), (3, 'flu'), (4, 'diabetes'), (5, 'cancer');
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
	`)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestPublicAPIEndToEnd(t *testing.T) {
	db := openHealth(t)
	db.SetUser("auditor_demo")

	r, err := db.Query("SELECT Name, Age FROM Patients WHERE Name = 'Alice'")
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "Alice" {
		t.Fatalf("rows = %v", r.Rows)
	}
	ids := r.AccessedIDs("Audit_Alice")
	if len(ids) != 1 || ids[0].Int() != 1 {
		t.Errorf("accessed = %v", ids)
	}
	if r.AccessedCount("Audit_Alice") != 1 {
		t.Errorf("count = %d", r.AccessedCount("Audit_Alice"))
	}
	if exprs := r.AuditedExpressions(); len(exprs) != 1 || exprs[0] != "Audit_Alice" {
		t.Errorf("expressions = %v", exprs)
	}

	lg, err := db.Query("SELECT UserID, PatientID FROM Log")
	if err != nil {
		t.Fatal(err)
	}
	// The SELECT on Log itself fires no triggers but the earlier
	// patient query must have logged one row.
	if len(lg.Rows) != 1 || lg.Rows[0][0].Str() != "auditor_demo" {
		t.Errorf("log = %v", lg.Rows)
	}
}

func TestPublicOfflineAudit(t *testing.T) {
	db := openHealth(t)
	rep, err := db.OfflineAudit("SELECT * FROM Patients WHERE Zip = '48109'", "Audit_Alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AccessedIDs) != 1 || rep.AccessedIDs[0].Int() != 1 {
		t.Errorf("offline = %+v", rep)
	}
	// A select-join shape: one lineage run decides the one candidate.
	if rep.Candidates != 1 || rep.Decided != 1 || rep.DeletionTests != 0 || rep.Executions != 1 || rep.DeferReasons != nil {
		t.Errorf("cost counters = %+v", rep)
	}
	// DISTINCT decides nothing: leaf pass, baseline, one deletion test.
	rep, err = db.OfflineAudit("SELECT DISTINCT Zip FROM Patients", "Audit_Alice")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Candidates != 1 || rep.Decided != 0 || rep.DeletionTests != 1 || rep.Executions != 3 || rep.DeferReasons["distinct"] != 1 {
		t.Errorf("cost counters = %+v", rep)
	}
	stats := db.Stats()
	if stats["offline_executions"] != 4 {
		t.Errorf("offline_executions = %d, want 4", stats["offline_executions"])
	}
	if _, err := db.OfflineAudit("SELECT 1", "nope"); err == nil {
		t.Error("unknown expression should fail")
	}
}

func TestPublicPlacementControl(t *testing.T) {
	db := openHealth(t)
	db.SetAuditAll(true)
	q := `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`

	db.SetPlacement(PlacementHCN)
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.AccessedCount("Audit_Alice"); n != 0 {
		t.Errorf("hcn: Alice not in flu join, got %d", n)
	}

	db.SetPlacement(PlacementLeafNode)
	r, err = db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.AccessedCount("Audit_Alice"); n != 1 {
		t.Errorf("leaf: Alice passes the scan, got %d", n)
	}
}

func TestPublicExplain(t *testing.T) {
	db := openHealth(t)
	s, err := db.Explain("SELECT * FROM Patients", true)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "Audit(") || !strings.Contains(s, "Scan(") {
		t.Errorf("explain = %s", s)
	}
}

func TestPublicStatsAndCardinality(t *testing.T) {
	db := openHealth(t)
	n, err := db.AuditExpressionCardinality("Audit_Alice")
	if err != nil || n != 1 {
		t.Errorf("cardinality = %d, %v", n, err)
	}
	if _, err := db.AuditExpressionCardinality("nope"); err == nil {
		t.Error("unknown expression should fail")
	}
	if _, err := db.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st["rows_audited"] < 1 || st["triggers_fired"] < 1 {
		t.Errorf("stats = %v", st)
	}
}

func TestPublicNotify(t *testing.T) {
	db := Open()
	var got []string
	db.OnNotify(func(m string) { got = append(got, m) })
	if _, err := db.ExecScript(`
		CREATE TABLE T (x INT);
		CREATE TRIGGER n ON T AFTER INSERT AS NOTIFY 'hello';
		INSERT INTO T VALUES (1);
	`); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "hello" {
		t.Errorf("notifications = %v", got)
	}
}
