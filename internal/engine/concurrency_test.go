package engine

import (
	"fmt"
	"sync"
	"testing"

	"auditdb/internal/value"
)

// TestConcurrentQueriesAndDML exercises the locking story: audited
// readers run against storage snapshots while a writer mutates the
// sensitive table, forcing incremental maintenance of the materialized
// ID set mid-flight. Run with -race.
func TestConcurrentQueriesAndDML(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_Zip AS
			SELECT * FROM Patients WHERE Zip = '48109'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)

	var wg sync.WaitGroup
	errs := make(chan error, 64)

	// Writers: insert and delete patients in the audited zip code. A
	// session is single-goroutine, so every goroutine opens its own.
	wg.Add(1)
	go func() {
		defer wg.Done()
		s := e.NewSession()
		defer s.Close()
		for i := 0; i < 30; i++ {
			id := 1000 + i
			if _, err := s.Exec(fmt.Sprintf(
				"INSERT INTO Patients VALUES (%d, 'P%d', %d, '48109')", id, id, 20+i)); err != nil {
				errs <- err
				return
			}
			if i%2 == 0 {
				if _, err := s.Exec(fmt.Sprintf("DELETE FROM Patients WHERE PatientID = %d", id)); err != nil {
					errs <- err
					return
				}
			}
		}
	}()

	// Readers: audited scans and joins.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.NewSession()
			defer s.Close()
			for i := 0; i < 20; i++ {
				if _, err := s.Query("SELECT * FROM Patients WHERE Zip = '48109'"); err != nil {
					errs <- err
					return
				}
				if _, err := s.Query(`SELECT P.Name FROM Patients P, Disease D
					WHERE P.PatientID = D.PatientID`); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The ID set must converge to the final table state.
	ae, _ := e.Registry().Get("Audit_Zip")
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Patients WHERE Zip = '48109'")
	if got, want := ae.Cardinality(), int(r.Rows[0][0].Int()); got != want {
		t.Errorf("materialized set = %d, table says %d", got, want)
	}
}

// TestConcurrentWritersKeepIDSet: several sessions move the same rows
// into and out of an audit expression at once. Each statement's delta
// must reach the materialized ID set in the order its row changes were
// applied — clone-and-store maintenance run outside the writer lock
// loses or reverts an ID under this load (a false negative, Claim
// 3.6). The maintained set must equal the set recomputed from the
// final table. Run with -race.
func TestConcurrentWritersKeepIDSet(t *testing.T) {
	// The hot rows are the ones the sessions fight over; the cold rows
	// only make the ID set large, so that cloning it takes long enough
	// for an unsynchronized clone-and-store to overlap another writer's
	// on a two-core machine.
	const sessions, hot, cold, rounds = 6, 8, 4000, 150
	e := New()
	if _, err := e.Exec("CREATE TABLE Accts (ID INT PRIMARY KEY, Flag INT)"); err != nil {
		t.Fatal(err)
	}
	var load []value.Row
	for id := 0; id < hot+cold; id++ {
		load = append(load, value.Row{value.NewInt(int64(id)), value.NewInt(1)})
	}
	if err := e.LoadRows("Accts", load); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Exec(`CREATE AUDIT EXPRESSION Audit_Flagged AS
		SELECT * FROM Accts WHERE Flag = 1
		FOR SENSITIVE TABLE Accts, PARTITION BY ID`); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := e.NewSession()
			defer sess.Close()
			for i := 0; i < rounds; i++ {
				// Every session hits every row, alternating direction, so
				// opposite moves of one row race all the time.
				sql := fmt.Sprintf("UPDATE Accts SET Flag = %d WHERE ID = %d", (i+s)%2, (i*7+s)%hot)
				if _, err := sess.Exec(sql); err != nil {
					errs <- err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	ae, _ := e.Registry().Get("Audit_Flagged")
	want := map[int64]bool{}
	for _, row := range mustQuery(t, e, "SELECT ID FROM Accts WHERE Flag = 1").Rows {
		want[row[0].Int()] = true
	}
	got := map[int64]bool{}
	for _, v := range ae.IDs() {
		got[v.Int()] = true
	}
	for id := range want {
		if !got[id] {
			t.Errorf("id %d is flagged in the table but missing from the maintained set (false negative)", id)
		}
	}
	for id := range got {
		if !want[id] {
			t.Errorf("id %d is in the maintained set but not flagged in the table", id)
		}
	}
}
