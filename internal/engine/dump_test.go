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

// TestDumpQuotesReservedIdentifiers: names that are reserved words (or
// not bare identifiers at all) are written double-quoted wherever a
// dump or the WAL's DDL records carry them — tables, columns, indexes,
// views, audit expressions, triggers — so dump → restore → dump is
// byte-identical and a durable engine with them reopens.
func TestDumpQuotesReservedIdentifiers(t *testing.T) {
	const script = `
		CREATE TABLE "order" ("date" INT PRIMARY KEY, "select" VARCHAR(20), "two words" INT);
		INSERT INTO "order" VALUES (1, 'a', 10), (2, 'b', 20);
		CREATE TABLE "Log" ("view" INT);
		CREATE INDEX "index" ON "order" ("select");
		CREATE VIEW "table" AS SELECT o."date" AS "from", "two words" FROM "order" o WHERE "select" = 'a';
		CREATE VIEW v AS SELECT "expression", qid FROM sys.verdicts;
		CREATE AUDIT EXPRESSION "audit" AS SELECT * FROM "order" WHERE "date" < 2
			FOR SENSITIVE TABLE "order", PARTITION BY "date";
		CREATE TRIGGER "trigger" ON ACCESS TO "audit" AS INSERT INTO "Log" SELECT "date" FROM ACCESSED;
	`
	e := New()
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	dump := dumpString(t, e)
	e2 := New()
	if _, err := e2.ExecScript(dump); err != nil {
		t.Fatalf("restore: %v\n%s", err, dump)
	}
	if again := dumpString(t, e2); again != dump {
		t.Fatalf("dump after restore differs:\n%s\nfirst:\n%s", again, dump)
	}
	if r := mustQuery(t, e2, `SELECT "from" FROM "table"`); len(r.Rows) != 1 || r.Rows[0][0].Int() != 1 {
		t.Fatalf("restored view: %v", r.Rows)
	}

	dir := t.TempDir()
	d := openDurable(t, dir)
	if _, err := d.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	before := dumpString(t, d)
	if err := d.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, dir)
	defer d2.CloseWAL()
	if after := dumpString(t, d2); after != before {
		t.Fatalf("recovered dump differs:\n%s\nbefore:\n%s", after, before)
	}
}
