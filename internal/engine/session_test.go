package engine

import (
	"fmt"
	"sync"
	"testing"

	"auditdb/internal/value"
)

const sessionFixture = `
CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT);
CREATE TABLE Log (UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
INSERT INTO Patients VALUES (1, 'Alice', 34), (2, 'Bob', 21), (3, 'Carol', 47);
CREATE AUDIT EXPRESSION Audit_Alice AS
	SELECT * FROM Patients WHERE Name = 'Alice'
	FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
	INSERT INTO Log SELECT userid(), sqltext(), PatientID FROM ACCESSED;
`

// TestSessionUserAttribution is the regression test for the
// session-identity race: with the old engine-global SetUser, two
// concurrent users' trigger-logged rows could carry each other's
// USERID(). Each session tags its SQL text, so every Log row must pair
// the tag with that session's user.
func TestSessionUserAttribution(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(sessionFixture); err != nil {
		t.Fatal(err)
	}

	const users = 4
	const queriesPerUser = 25
	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			s.SetUser(fmt.Sprintf("user%d", u))
			// The tag (u+1)*1000000+i makes each query text unique to
			// its session.
			for i := 0; i < queriesPerUser; i++ {
				sql := fmt.Sprintf("SELECT Name FROM Patients WHERE Name = 'Alice' AND %d = %d", tag(u, i), tag(u, i))
				if _, err := s.Query(sql); err != nil {
					errs <- err
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	rows := mustQuery(t, e, "SELECT UserID, SQL FROM Log").Rows
	if got, want := len(rows), users*queriesPerUser; got != want {
		t.Fatalf("Log rows = %d, want %d", got, want)
	}
	for _, r := range rows {
		user, sql := r[0].Str(), r[1].Str()
		for u := 0; u < users; u++ {
			for i := 0; i < queriesPerUser; i++ {
				if sql == fmt.Sprintf("SELECT Name FROM Patients WHERE Name = 'Alice' AND %d = %d", tag(u, i), tag(u, i)) {
					if want := fmt.Sprintf("user%d", u); user != want {
						t.Fatalf("cross-session USERID bleed: query tagged for %s logged as %s", want, user)
					}
				}
			}
		}
	}
}

func tag(u, i int) int { return (u+1)*1000000 + i }

// TestSessionSettingsIndependent checks that audit-all and user are
// per-session, seeded from the default session at creation.
func TestSessionSettingsIndependent(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(sessionFixture); err != nil {
		t.Fatal(err)
	}
	a := e.NewSession()
	b := e.NewSession()
	defer a.Close()
	defer b.Close()

	a.SetAuditAll(true)
	if b.AuditAll() {
		t.Fatal("SetAuditAll leaked across sessions")
	}
	a.SetUser("alice")
	if got := b.User(); got != "system" {
		t.Fatalf("b.User() = %q, want inherited default %q", got, "system")
	}

	// New sessions inherit the default session's current settings.
	e.SetAuditAll(true)
	e.SetUser("root")
	c := e.NewSession()
	defer c.Close()
	if !c.AuditAll() || c.User() != "root" {
		t.Fatalf("NewSession did not inherit defaults: auditAll=%v user=%q", c.AuditAll(), c.User())
	}
}

// TestSessionTxnIsolation checks that SQL-level transactions belong to
// the session that opened them: another session's COMMIT/ROLLBACK
// fails cleanly instead of hijacking the open transaction.
func TestSessionTxnIsolation(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(sessionFixture); err != nil {
		t.Fatal(err)
	}
	a := e.NewSession()
	b := e.NewSession()
	defer a.Close()
	defer b.Close()

	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO Patients VALUES (10, 'Zed', 50)"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("COMMIT"); err == nil {
		t.Fatal("COMMIT from a session without a transaction should fail")
	}
	if _, err := b.Exec("ROLLBACK"); err == nil {
		t.Fatal("ROLLBACK from a session without a transaction should fail")
	}
	if _, err := a.Exec("ROLLBACK"); err != nil {
		t.Fatalf("owner's ROLLBACK failed: %v", err)
	}
	rows := mustQuery(t, e, "SELECT Name FROM Patients WHERE PatientID = 10").Rows
	if len(rows) != 0 {
		t.Fatal("rolled-back insert is visible")
	}
}

// TestSessionCloseRollsBackTxn models a dropped connection: closing a
// session with an open SQL transaction rolls it back and releases the
// writer lock for other sessions.
func TestSessionCloseRollsBackTxn(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(sessionFixture); err != nil {
		t.Fatal(err)
	}
	a := e.NewSession()
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO Patients VALUES (11, 'Ghost', 1)"); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("SELECT 1"); err == nil {
		t.Fatal("statements on a closed session should fail")
	}

	// The writer lock must be free again and the insert undone.
	b := e.NewSession()
	defer b.Close()
	if _, err := b.Exec("INSERT INTO Patients VALUES (12, 'Next', 2)"); err != nil {
		t.Fatal(err)
	}
	if rows := mustQuery(t, e, "SELECT Name FROM Patients WHERE PatientID = 11").Rows; len(rows) != 0 {
		t.Fatal("closed session's transaction was not rolled back")
	}
}

// TestSessionPreparedAttribution runs one prepared statement from two
// sessions and checks each run is logged under its own user.
func TestSessionPreparedAttribution(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(sessionFixture); err != nil {
		t.Fatal(err)
	}
	a := e.NewSession()
	b := e.NewSession()
	defer a.Close()
	defer b.Close()
	a.SetUser("alice")
	b.SetUser("bob")

	pa, err := a.Prepare("SELECT Name FROM Patients WHERE Name = ?")
	if err != nil {
		t.Fatal(err)
	}
	pb, err := b.Prepare("SELECT Name FROM Patients WHERE Name = ?")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pa.Run(value.NewString("Alice")); err != nil {
		t.Fatal(err)
	}
	if _, err := pb.Run(value.NewString("Alice")); err != nil {
		t.Fatal(err)
	}

	rows := mustQuery(t, e, "SELECT UserID FROM Log ORDER BY UserID").Rows
	if len(rows) != 2 || rows[0][0].Str() != "alice" || rows[1][0].Str() != "bob" {
		t.Fatalf("prepared-statement attribution wrong: %v", rows)
	}
}
