package engine

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"auditdb/internal/wal"
)

// openDurable opens (or reopens) a durable engine over dir, running
// recovery and attaching the WAL — the daemon's boot sequence.
func openDurable(t *testing.T, dir string) *Engine {
	t.Helper()
	m, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open(%s): %v", dir, err)
	}
	e := New()
	if err := e.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	e.AttachWAL(m)
	return e
}

func dumpString(t *testing.T, e *Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Dump(&buf); err != nil {
		t.Fatalf("Dump: %v", err)
	}
	return buf.String()
}

// TestDurableReplayMatchesDump commits schema, data, and DML (updates
// and deletes included) and checks that recovery reproduces the exact
// pre-crash state, dump-for-dump.
func TestDurableReplayMatchesDump(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT);
		INSERT INTO Patients VALUES (1, 'Alice', 34), (2, 'Bob', 21), (3, 'Carol', 47);
		UPDATE Patients SET Age = 35 WHERE Name = 'Alice';
		DELETE FROM Patients WHERE Name = 'Bob';
		CREATE INDEX idx_age ON Patients (Age);
		CREATE VIEW recent AS SELECT qid, sql FROM sys.traces;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	before := dumpString(t, e)
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	// The boot sequence of openDurable, with every statement sampled:
	// recovery is not a statement, so replaying the DDL above takes no
	// query IDs and retains no traces.
	m, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	e2 := New()
	e2.SetTraceSampling(1)
	if err := e2.Recover(rec); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	e2.AttachWAL(m)
	defer e2.CloseWAL()
	if n := e2.TraceRing().Len(); n != 0 {
		t.Fatalf("recovery retained %d traces: %+v", n, e2.TraceRing().Snapshot())
	}
	if after := dumpString(t, e2); after != before {
		t.Fatalf("recovered dump differs\n--- before ---\n%s\n--- after ---\n%s", before, after)
	}
	r := mustQuery(t, e2, "SELECT Age FROM Patients WHERE Name = 'Alice'")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 35 {
		t.Fatalf("update lost in replay: %v", r.Rows)
	}
	if r.QID != 1 {
		t.Fatalf("first statement after recovery has qid %d, want 1", r.QID)
	}
	// The replayed view reads the new engine's ring: the statement above.
	if v := mustQuery(t, e2, "SELECT qid FROM recent"); len(v.Rows) != 1 || v.Rows[0][0].Int() != 1 {
		t.Fatalf("replayed view over sys.traces: %v", v.Rows)
	}
}

// TestDurableRollbackNotReplayed: a rolled-back transaction's DML must
// not reappear after recovery, while a committed one must.
func TestDurableRollbackNotReplayed(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if _, err := e.ExecScript(`CREATE TABLE T (ID INT PRIMARY KEY, V VARCHAR(10));`); err != nil {
		t.Fatalf("setup: %v", err)
	}

	txn := e.Begin()
	if _, err := txn.Exec("INSERT INTO T VALUES (1, 'keep')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}

	txn = e.Begin()
	if _, err := txn.Exec("INSERT INTO T VALUES (2, 'drop')"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	e2 := openDurable(t, dir)
	defer e2.CloseWAL()
	r := mustQuery(t, e2, "SELECT V FROM T ORDER BY ID")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "keep" {
		t.Fatalf("recovered rows = %v, want only 'keep'", r.Rows)
	}
}

// TestDurableSelectTriggerSurvives: a SELECT trigger's system
// transaction (the paper's tamper-resistant audit write) must survive
// a restart, and the firing itself must be on the hash-chained audit
// stream.
func TestDurableSelectTriggerSurvives(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30));
		CREATE TABLE Log (UserID VARCHAR(30), PatientID INT);
		INSERT INTO Patients VALUES (1, 'Alice'), (2, 'Bob');
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT userid(), PatientID FROM ACCESSED;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	sess := e.NewSession()
	sess.SetUser("dr_mallory")
	if _, err := sess.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatalf("audited query: %v", err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	e2 := openDurable(t, dir)
	defer e2.CloseWAL()
	r := mustQuery(t, e2, "SELECT UserID, PatientID FROM Log")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "dr_mallory" || r.Rows[0][1].Int() != 1 {
		t.Fatalf("trigger write lost in replay: %v", r.Rows)
	}
	rep, err := e2.VerifyAuditLog()
	if err != nil {
		t.Fatalf("VerifyAuditLog: %v", err)
	}
	if !rep.Valid || rep.Records != 1 {
		t.Fatalf("audit chain = %+v, want valid with 1 record", rep)
	}
}

// TestVerifyAuditLogStatement drives VERIFY AUDIT LOG through SQL and
// checks it flips to invalid when the on-disk stream is edited.
func TestVerifyAuditLogStatement(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30));
		CREATE TABLE Log (UserID VARCHAR(30), PatientID INT);
		INSERT INTO Patients VALUES (1, 'Alice');
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT userid(), PatientID FROM ACCESSED;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if _, err := e.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatalf("audited query: %v", err)
	}

	r := mustExec(t, e, "VERIFY AUDIT LOG")
	if len(r.Rows) != 1 || !r.Rows[0][0].Bool() {
		t.Fatalf("pristine log reported invalid: %v", r.Rows)
	}

	// Flip one payload byte of the audit segment on disk.
	seg := filepath.Join(dir, "audit", "000001.wal")
	b, err := os.ReadFile(seg)
	if err != nil {
		t.Fatalf("reading audit segment: %v", err)
	}
	b[len(b)-1] ^= 0x01
	if err := os.WriteFile(seg, b, 0o644); err != nil {
		t.Fatalf("writing tampered segment: %v", err)
	}

	r = mustExec(t, e, "VERIFY AUDIT LOG")
	if r.Rows[0][0].Bool() {
		t.Fatalf("tampered log reported valid: %v", r.Rows)
	}
	if reason := r.Rows[0][3].Str(); reason == "" {
		t.Fatal("invalid verdict carries no reason")
	}
	e.CloseWAL()
}

// TestDurableCheckpointRecovery: state written before and after a
// checkpoint must both survive, and the audit chain must verify across
// the checkpoint boundary.
func TestDurableCheckpointRecovery(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	script := `
		CREATE TABLE T (ID INT PRIMARY KEY, V VARCHAR(10));
		INSERT INTO T VALUES (1, 'pre');
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, err := e.Exec("INSERT INTO T VALUES (2, 'post')"); err != nil {
		t.Fatalf("post-checkpoint insert: %v", err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	e2 := openDurable(t, dir)
	defer e2.CloseWAL()
	r := mustQuery(t, e2, "SELECT V FROM T ORDER BY ID")
	if len(r.Rows) != 2 || r.Rows[0][0].Str() != "pre" || r.Rows[1][0].Str() != "post" {
		t.Fatalf("recovered rows = %v", r.Rows)
	}
	rep, err := e2.VerifyAuditLog()
	if err != nil {
		t.Fatalf("VerifyAuditLog: %v", err)
	}
	if !rep.Valid {
		t.Fatalf("audit chain invalid after checkpointed recovery: %+v", rep)
	}
}

// TestDumpConcurrentWriters is the regression test for Dump running
// without the writer lock: every dump taken while writers are active
// must be a transactionally consistent script (replayable, and with
// the invariant that each account pair sums to zero).
func TestDumpConcurrentWriters(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`CREATE TABLE Acct (ID INT PRIMARY KEY, Bal INT);
		INSERT INTO Acct VALUES (1, 0), (2, 0);`); err != nil {
		t.Fatalf("setup: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// Balanced transfer: invariant Bal(1) + Bal(2) == 0.
				txn := e.Begin()
				d := fmt.Sprintf("%d", (w+i)%97+1)
				txn.Exec("UPDATE Acct SET Bal = Bal + " + d + " WHERE ID = 1")
				txn.Exec("UPDATE Acct SET Bal = Bal - " + d + " WHERE ID = 2")
				txn.Commit()
			}
		}(w)
	}

	for i := 0; i < 20; i++ {
		script := dumpString(t, e)
		fresh := New()
		if _, err := fresh.ExecScript(script); err != nil {
			t.Fatalf("dump %d not replayable: %v\n%s", i, err, script)
		}
		r := mustQuery(t, fresh, "SELECT Bal FROM Acct ORDER BY ID")
		if len(r.Rows) != 2 {
			t.Fatalf("dump %d lost rows: %v", i, r.Rows)
		}
		if sum := r.Rows[0][0].Int() + r.Rows[1][0].Int(); sum != 0 {
			t.Fatalf("dump %d is not transactionally consistent: sum = %d", i, sum)
		}
	}
	close(stop)
	wg.Wait()
}

// TestDurableDDLOnlyRollback: DDL is not undone by rollback, so it
// must still be logged (and replayed) even when the transaction rolls
// back its DML.
func TestDurableDDLOnlyRollback(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	txn := e.Begin()
	if _, err := txn.Exec("CREATE TABLE T (ID INT PRIMARY KEY)"); err != nil {
		t.Fatalf("ddl: %v", err)
	}
	if _, err := txn.Exec("INSERT INTO T VALUES (1)"); err != nil {
		t.Fatalf("insert: %v", err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatalf("rollback: %v", err)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}

	e2 := openDurable(t, dir)
	defer e2.CloseWAL()
	r := mustQuery(t, e2, "SELECT * FROM T")
	if len(r.Rows) != 0 {
		t.Fatalf("rolled-back insert replayed: %v", r.Rows)
	}
}

// TestDurableMaintenanceFailureStillLogged: when audit-set maintenance
// fails after the rows were applied, the statement errors but the rows
// stay in the store — so they must be in the log as well, or store and
// log diverge at the next restart.
func TestDurableMaintenanceFailureStillLogged(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if _, err := e.ExecScript(`
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30));
		CREATE TABLE Flags (PatientID INT);
		CREATE AUDIT EXPRESSION Flagged AS
			SELECT P.* FROM Patients P, Flags F WHERE P.PatientID = F.PatientID
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		DROP TABLE Flags;
	`); err != nil {
		t.Fatalf("setup: %v", err)
	}
	// The expression's defining query no longer builds: its refresh fails.
	if _, err := e.Exec("INSERT INTO Patients VALUES (1, 'Alice')"); err == nil {
		t.Fatal("insert succeeded; the test needs maintenance to fail")
	}
	if r := mustQuery(t, e, "SELECT Name FROM Patients"); len(r.Rows) != 1 {
		t.Fatalf("store holds %d rows, want the applied one", len(r.Rows))
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatalf("CloseWAL: %v", err)
	}
	m, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	defer m.Close()
	logged := 0
	for _, c := range rec.Commits {
		for _, op := range c.Ops {
			if op.Kind == wal.OpInsert && op.Table == "Patients" {
				logged++
			}
		}
	}
	if logged != 1 {
		t.Fatalf("log holds %d inserts into Patients, want 1", logged)
	}
}
