package engine

import (
	"strings"
	"testing"
)

func TestDumpRestoreRoundTrip(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
		CREATE INDEX idx_zip ON Patients (Zip);
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
		CREATE VIEW recent AS SELECT qid, sql FROM sys.traces;
	`); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	script := sb.String()
	for _, want := range []string{
		"CREATE TABLE Patients", "INSERT INTO Patients VALUES",
		"CREATE INDEX idx_zip", "CREATE AUDIT EXPRESSION Audit_Alice",
		"CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice",
		"CREATE VIEW recent AS SELECT qid, sql FROM sys.traces",
	} {
		if !strings.Contains(script, want) {
			t.Fatalf("dump missing %q:\n%s", want, script)
		}
	}

	// Replay into a fresh engine.
	e2 := New()
	if _, err := e2.ExecScript(script); err != nil {
		t.Fatalf("restore failed: %v\nscript:\n%s", err, script)
	}

	// Audit state round-trips: the restored engine's expression is
	// compiled and its trigger fires on the very first access.
	ae, ok := e2.Registry().Get("Audit_Alice")
	if !ok || ae.Cardinality() != 1 {
		t.Fatalf("restored audit expression: %v", ok)
	}
	mustQuery(t, e2, "SELECT * FROM Patients WHERE Name = 'Alice'")
	lg := mustQuery(t, e2, "SELECT COUNT(*) FROM Log")
	if lg.Rows[0][0].Int() != 1 {
		t.Errorf("restored trigger did not fire exactly once: %v", lg.Rows)
	}

	if r := mustQuery(t, e2, "SELECT * FROM recent"); len(r.Columns) != 2 {
		t.Errorf("restored view over sys.traces: %v", r.Columns)
	}

	// Data round-trips. (These scans read Alice's row too and rightly
	// keep appending to the restored Log — auditing survives Restore.)
	r1 := mustQuery(t, e, "SELECT PatientID, Name, Age, Zip FROM Patients ORDER BY PatientID")
	r2 := mustQuery(t, e2, "SELECT PatientID, Name, Age, Zip FROM Patients ORDER BY PatientID")
	if len(r1.Rows) != len(r2.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(r1.Rows), len(r2.Rows))
	}
	for i := range r1.Rows {
		if r1.Rows[i].String() != r2.Rows[i].String() {
			t.Errorf("row %d differs: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

func TestDumpRoundTripsValueKinds(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE K (i INT, f FLOAT, s VARCHAR(50), d DATE, b BOOLEAN);
		INSERT INTO K VALUES
			(1, 1.5, 'plain', DATE '1995-03-15', TRUE),
			(-7, 0.1, 'O''Brien said ''hi''', DATE '2001-12-31', FALSE),
			(NULL, NULL, NULL, NULL, NULL);
	`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	e2 := New()
	if _, err := e2.ExecScript(sb.String()); err != nil {
		t.Fatalf("restore: %v\n%s", err, sb.String())
	}
	r1 := mustQuery(t, e, "SELECT * FROM K ORDER BY i")
	r2 := mustQuery(t, e2, "SELECT * FROM K ORDER BY i")
	for i := range r1.Rows {
		if r1.Rows[i].String() != r2.Rows[i].String() {
			t.Errorf("row %d: %v vs %v", i, r1.Rows[i], r2.Rows[i])
		}
	}
}

func TestDumpDMLTrigger(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE T (x INT);
		CREATE TABLE AuditLog (x INT);
		CREATE TRIGGER cp ON T AFTER INSERT AS INSERT INTO AuditLog VALUES (NEW.x);
	`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	e2 := New()
	if _, err := e2.ExecScript(sb.String()); err != nil {
		t.Fatalf("restore: %v\n%s", err, sb.String())
	}
	mustExec(t, e2, "INSERT INTO T VALUES (42)")
	r := mustQuery(t, e2, "SELECT x FROM AuditLog")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 42 {
		t.Errorf("restored DML trigger did not fire: %v", r.Rows)
	}
}

func TestDumpCompositePrimaryKey(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE PS (a INT, b INT, q INT, PRIMARY KEY (a, b));
		INSERT INTO PS VALUES (1, 1, 10), (1, 2, 20);
	`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	e2 := New()
	if _, err := e2.ExecScript(sb.String()); err != nil {
		t.Fatalf("restore: %v\n%s", err, sb.String())
	}
	// The composite key constraint survives.
	if _, err := e2.Exec("INSERT INTO PS VALUES (1, 1, 99)"); err == nil {
		t.Error("restored composite pk should reject duplicates")
	}
}
