package engine

import (
	"testing"
)

func TestTxnCommit(t *testing.T) {
	e := newHealthDB(t)
	txn := e.Begin()
	if _, err := txn.Exec("INSERT INTO Patients VALUES (10, 'Zoe', 30, '48109')"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("UPDATE Patients SET Age = 99 WHERE PatientID = 1"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Patients")
	if r.Rows[0][0].Int() != 6 {
		t.Errorf("count = %v", r.Rows[0])
	}
	r = mustQuery(t, e, "SELECT Age FROM Patients WHERE PatientID = 1")
	if r.Rows[0][0].Int() != 99 {
		t.Errorf("age = %v", r.Rows[0])
	}
}

func TestTxnRollback(t *testing.T) {
	e := newHealthDB(t)
	txn := e.Begin()
	if _, err := txn.Exec("INSERT INTO Patients VALUES (10, 'Zoe', 30, '48109')"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("DELETE FROM Patients WHERE PatientID = 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("UPDATE Patients SET Age = 99 WHERE PatientID = 1"); err != nil {
		t.Fatal(err)
	}
	// Uncommitted changes are visible inside the transaction.
	r, err := txn.Query("SELECT COUNT(*) FROM Patients")
	if err != nil || r.Rows[0][0].Int() != 5 {
		t.Fatalf("in-txn count = %v, %v", r.Rows, err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	r2 := mustQuery(t, e, "SELECT PatientID, Age FROM Patients ORDER BY PatientID")
	if len(r2.Rows) != 5 {
		t.Fatalf("rollback lost rows: %v", r2.Rows)
	}
	if r2.Rows[0][1].Int() != 34 {
		t.Errorf("rollback did not restore age: %v", r2.Rows[0])
	}
	if r2.Rows[1][0].Int() != 2 {
		t.Errorf("rollback did not restore Bob: %v", r2.Rows)
	}
}

func TestTxnRollbackRestoresAuditSets(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	ae, _ := e.Registry().Get("Audit_Alice")
	txn := e.Begin()
	if _, err := txn.Exec("INSERT INTO Patients VALUES (10, 'Alice', 20, '48109')"); err != nil {
		t.Fatal(err)
	}
	if ae.Cardinality() != 2 {
		t.Fatalf("in-txn cardinality = %d", ae.Cardinality())
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if ae.Cardinality() != 1 {
		t.Errorf("rollback did not restore audit set: %d", ae.Cardinality())
	}
}

func TestTxnRollbackUndoesTriggerEffects(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE TABLE Shadow (x INT);
		CREATE TRIGGER cp ON Patients AFTER INSERT AS INSERT INTO Shadow VALUES (NEW.PatientID);
	`); err != nil {
		t.Fatal(err)
	}
	txn := e.Begin()
	if _, err := txn.Exec("INSERT INTO Patients VALUES (10, 'Zoe', 30, '48109')"); err != nil {
		t.Fatal(err)
	}
	r, _ := txn.Query("SELECT COUNT(*) FROM Shadow")
	if r.Rows[0][0].Int() != 1 {
		t.Fatalf("trigger did not fire in txn: %v", r.Rows)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	r2 := mustQuery(t, e, "SELECT COUNT(*) FROM Shadow")
	if r2.Rows[0][0].Int() != 0 {
		t.Errorf("trigger's insert survived rollback: %v", r2.Rows)
	}
}

func TestTxnSQLStatements(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		BEGIN;
		INSERT INTO Patients VALUES (10, 'Zoe', 30, '48109');
		ROLLBACK;
	`); err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Patients")
	if r.Rows[0][0].Int() != 5 {
		t.Errorf("SQL rollback failed: %v", r.Rows[0])
	}
	if _, err := e.ExecScript(`
		BEGIN;
		INSERT INTO Patients VALUES (11, 'Yan', 30, '48109');
		COMMIT;
	`); err != nil {
		t.Fatal(err)
	}
	r = mustQuery(t, e, "SELECT COUNT(*) FROM Patients")
	if r.Rows[0][0].Int() != 6 {
		t.Errorf("SQL commit failed: %v", r.Rows[0])
	}
}

func TestTxnControlErrors(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.Exec("COMMIT"); err == nil {
		t.Error("COMMIT without BEGIN should fail")
	}
	if _, err := e.Exec("ROLLBACK"); err == nil {
		t.Error("ROLLBACK without BEGIN should fail")
	}
	mustExec(t, e, "BEGIN")
	if _, err := e.Exec("BEGIN"); err == nil {
		t.Error("nested BEGIN should fail")
	}
	mustExec(t, e, "COMMIT")

	txn := e.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err == nil {
		t.Error("double commit should fail")
	}
	if err := txn.Rollback(); err == nil {
		t.Error("rollback after commit should fail")
	}
	if _, err := txn.Exec("SELECT 1"); err == nil {
		t.Error("exec after commit should fail")
	}
}

func TestTxnBlocksOtherWriters(t *testing.T) {
	e := newHealthDB(t)
	txn := e.Begin()
	done := make(chan error, 1)
	go func() {
		// A session is single-goroutine; the writer gets its own.
		s := e.NewSession()
		defer s.Close()
		_, err := s.Exec("INSERT INTO Patients VALUES (20, 'W', 1, 'x')")
		done <- err
	}()
	// The concurrent writer must not complete before commit.
	select {
	case err := <-done:
		t.Fatalf("writer ran during open transaction (err=%v)", err)
	default:
	}
	if _, err := txn.Exec("INSERT INTO Patients VALUES (21, 'T', 1, 'x')"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Patients")
	if r.Rows[0][0].Int() != 7 {
		t.Errorf("count = %v", r.Rows[0])
	}
}

// TestAuditTrailSurvivesRollback pins the paper's §II system-
// transaction semantics: rolling back a reading transaction must not
// erase the audit log rows its SELECTs generated — otherwise a snoop
// could read sensitive data and then scrub the trail.
func TestAuditTrailSurvivesRollback(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE TABLE Log (PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER LA ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT PatientID FROM ACCESSED;
	`); err != nil {
		t.Fatal(err)
	}
	txn := e.Begin()
	if _, err := txn.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("INSERT INTO Patients VALUES (10, 'Zoe', 1, 'x')"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	lg := mustQuery(t, e, "SELECT COUNT(*) FROM Log")
	if lg.Rows[0][0].Int() != 1 {
		t.Errorf("audit trail erased by rollback: %v", lg.Rows[0])
	}
	p := mustQuery(t, e, "SELECT COUNT(*) FROM Patients")
	if p.Rows[0][0].Int() != 5 {
		t.Errorf("data rollback failed: %v", p.Rows[0])
	}
}
