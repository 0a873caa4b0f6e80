package engine

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// A SELECT-trigger firing plans its action's SELECT once per session,
// knobs and catalog version, then resets the entry's operator instance
// on every later firing. These tests run each scenario twice — on an
// engine with the plan caches on, and on a reference that compiles
// every statement — and demand the same rows, the same errors and, with
// the session clock fixed, byte-identical audit logs.

var fixedClock = time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)

// triggerPair builds the health schema plus script on two engines whose
// NOW() reads fixedClock: the first caches plans, the second (the
// reference) compiles every statement.
func triggerPair(t *testing.T, script string) [2]*Engine {
	t.Helper()
	var out [2]*Engine
	for i := range out {
		e := newHealthDB(t)
		e.disablePlanCache = i == 1
		e.clock = func() time.Time { return fixedClock }
		if script != "" {
			if _, err := e.ExecScript(script); err != nil {
				t.Fatalf("setup: %v", err)
			}
		}
		out[i] = e
	}
	return out
}

// bothExec runs sql on both engines and fails unless they return the
// same rows and the same error.
func bothExec(t *testing.T, es [2]*Engine, sql string) error {
	t.Helper()
	var got [2]string
	var errs [2]error
	for i, e := range es {
		r, err := e.Exec(sql)
		errs[i] = err
		if err == nil {
			got[i] = strings.Join(renderTyped(r), "\n")
		} else {
			got[i] = "error: " + err.Error()
		}
	}
	if got[0] != got[1] {
		t.Fatalf("%s:\ncached:    %s\nreference: %s", sql, got[0], got[1])
	}
	return errs[0]
}

// renderTyped renders rows with every value's kind, so equal output
// means byte-identical rows.
func renderTyped(r *Result) []string {
	out := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		var b strings.Builder
		for j, v := range row {
			if j > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%v:%s", v.Kind, v.String())
		}
		out[i] = b.String()
	}
	return out
}

// sameTable fails unless both engines hold the same rows in table, in
// storage order.
func sameTable(t *testing.T, es [2]*Engine, table string) []string {
	t.Helper()
	var got [2][]string
	for i, e := range es {
		got[i] = renderTyped(mustQuery(t, e, "SELECT * FROM "+table))
	}
	if strings.Join(got[0], "\n") != strings.Join(got[1], "\n") {
		t.Fatalf("%s differs:\ncached:\n%s\nreference:\n%s", table, strings.Join(got[0], "\n"), strings.Join(got[1], "\n"))
	}
	return got[0]
}

// triggerEntries returns the session's L1 entries that hold trigger
// bodies' plans.
func triggerEntries(s *Session) []*planEntry {
	s.lock()
	defer s.unlock()
	var out []*planEntry
	for k, pe := range s.canonCache {
		if strings.HasPrefix(k, "\x00trigger ") {
			out = append(out, pe)
		}
	}
	return out
}

const firstAccessLog = `
	CREATE TABLE AccessLog (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
	CREATE AUDIT EXPRESSION Audit_Old AS
		SELECT * FROM Patients WHERE Age > 30
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
	CREATE TRIGGER Log_Access ON ACCESS TO Audit_Old AS
		INSERT INTO AccessLog (At, UserID, SQL, PatientID)
		SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED
		WHERE PatientID NOT IN (SELECT PatientID FROM AccessLog);
`

// TestTriggerPlanReusedAcrossFirings: the action's plan is compiled by
// the first firing, reused (same entry, same operator instance) by the
// next ones, and its lookups leave the canonical cache's counters
// alone.
func TestTriggerPlanReusedAcrossFirings(t *testing.T) {
	es := triggerPair(t, firstAccessLog)
	e := es[0]
	bothExec(t, es, "SELECT Name FROM Patients WHERE Age > 40")
	entries := triggerEntries(e.DefaultSession())
	if len(entries) != 1 || entries[0].inst == nil {
		t.Fatalf("trigger entries after the first firing = %+v, want one that has run", entries)
	}
	first, inst := entries[0], entries[0].inst
	hits := e.StatsSnapshot()["plan_cache_hits"]
	misses := e.StatsSnapshot()["plan_cache_shared_misses"]
	for _, q := range []string{
		"SELECT Name FROM Patients WHERE Age > 40",
		"SELECT Name FROM Patients WHERE Age > 25",
		"SELECT Name FROM Patients WHERE Age > 40",
	} {
		bothExec(t, es, q)
	}
	entries = triggerEntries(e.DefaultSession())
	if len(entries) != 1 || entries[0] != first || entries[0].inst != inst {
		t.Fatalf("a later firing replanned the action: entries %+v", entries)
	}
	// Three top-level statements: the repeat of a cached shape is an L1
	// hit, the new literal shares the shape; the firings add nothing.
	if d := e.StatsSnapshot()["plan_cache_hits"] - hits; d != 3 {
		t.Errorf("plan_cache_hits moved by %d, want 3 (trigger lookups must not count)", d)
	}
	if d := e.StatsSnapshot()["plan_cache_shared_misses"] - misses; d != 0 {
		t.Errorf("plan_cache_shared_misses moved by %d, want 0", d)
	}
	got := sameTable(t, es, "AccessLog")
	if len(got) != 3 {
		t.Fatalf("AccessLog = %v, want one row per patient over 30", got)
	}
}

// TestTriggerPlanInvalidatedByDDL: the cached action plan never
// outlives the catalog it was planned against — a reordered log table,
// a replaced trigger body and a new index all replan it.
func TestTriggerPlanInvalidatedByDDL(t *testing.T) {
	es := triggerPair(t, firstAccessLog)
	fire := func(q string) {
		t.Helper()
		bothExec(t, es, q)
	}
	fire("SELECT Name FROM Patients WHERE Age > 40")
	before := triggerEntries(es[0].DefaultSession())[0]

	// Reordered columns: a stale plan of the NOT IN subquery would read
	// SQL where PatientID was and log Carol and Erin again.
	fire("DROP TABLE AccessLog")
	fire("CREATE TABLE AccessLog (PatientID INT, SQL VARCHAR(500), At VARCHAR(30), UserID VARCHAR(30))")
	fire("SELECT Name FROM Patients WHERE Age > 40")
	fire("SELECT Name FROM Patients WHERE Age > 30")
	if got := sameTable(t, es, "AccessLog"); len(got) != 3 {
		t.Fatalf("AccessLog after reorder = %v, want Alice, Carol, Erin once each", got)
	}
	if entries := triggerEntries(es[0].DefaultSession()); len(entries) != 1 || entries[0] == before {
		t.Fatalf("the reorder did not replan the action: %+v", entries)
	}

	// A new index on the log table.
	before = triggerEntries(es[0].DefaultSession())[0]
	fire("CREATE INDEX idx_log_pid ON AccessLog (PatientID)")
	fire("DELETE FROM AccessLog WHERE PatientID = 3")
	fire("SELECT Name FROM Patients WHERE Age > 40")
	if entries := triggerEntries(es[0].DefaultSession()); len(entries) != 1 || entries[0] == before {
		t.Fatalf("CREATE INDEX did not replan the action: %+v", entries)
	}
	sameTable(t, es, "AccessLog")

	// A different body under the same trigger name.
	fire("DROP TRIGGER Log_Access")
	fire(`CREATE TRIGGER Log_Access ON ACCESS TO Audit_Old AS
		INSERT INTO AccessLog (At, UserID, SQL, PatientID) SELECT now(), 'v2', sqltext(), PatientID FROM ACCESSED`)
	fire("SELECT Name FROM Patients WHERE Age > 60")
	got := sameTable(t, es, "AccessLog")
	if last := got[len(got)-1]; !strings.Contains(last, "v2") || !strings.HasPrefix(last, "INTEGER:5 ") {
		t.Fatalf("the new body did not run: last AccessLog row %q", last)
	}
	// The old body's keys are never looked up again: the session drops
	// its plan at its first lookup after the DDL, and a dropped trigger
	// leaves none behind.
	if entries := triggerEntries(es[0].DefaultSession()); len(entries) != 1 {
		t.Fatalf("trigger entries after the body was replaced = %d, want 1", len(entries))
	}
	fire("DROP TRIGGER Log_Access")
	fire("SELECT Name FROM Patients WHERE Age > 60")
	if entries := triggerEntries(es[0].DefaultSession()); len(entries) != 0 {
		t.Fatalf("trigger entries after DROP TRIGGER = %d, want 0", len(entries))
	}
}

// TestTriggerPlanCascadeDepth: an action that reads the sensitive table
// fires itself again, reusing its own cached plan at every depth, until
// the cascade bound stops it with the error a fresh compile gives.
func TestTriggerPlanCascadeDepth(t *testing.T) {
	es := triggerPair(t, `
		CREATE TABLE Log (PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Loop ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT PatientID FROM Patients WHERE Name = 'Alice';
	`)
	for i := 0; i < 2; i++ {
		err := bothExec(t, es, "SELECT Name FROM Patients WHERE PatientID = 1")
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("trigger cascade exceeds maximum depth %d", MaxCascadeDepth)) {
			t.Fatalf("run %d: err = %v, want the cascade bound", i, err)
		}
	}
	sameTable(t, es, "Log")
	if n := len(triggerEntries(es[0].DefaultSession())); n != 1 {
		t.Fatalf("trigger entries = %d, want the one body SELECT", n)
	}
}

// TestTriggerPlanAfterInsertNewRow: a DML trigger's INSERT ... SELECT
// that reads NEW reuses one plan across rows and statements, binding
// each row's NEW per run — and the SELECT it runs is itself audited.
func TestTriggerPlanAfterInsertNewRow(t *testing.T) {
	es := triggerPair(t, `
		CREATE TABLE Log (At VARCHAR(30), UserID VARCHAR(30), SQL VARCHAR(500), PatientID INT);
		CREATE TABLE Visits (VisitID INT, PatientID INT);
		CREATE TABLE Shadow (VisitID INT, Name VARCHAR(30));
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Alice ON ACCESS TO Audit_Alice AS
			INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
		CREATE TRIGGER copy_on_visit ON Visits AFTER INSERT AS
			INSERT INTO Shadow SELECT NEW.VisitID, Name FROM Patients WHERE PatientID = NEW.PatientID;
	`)
	bothExec(t, es, "INSERT INTO Visits VALUES (100, 1), (101, 2), (102, 1)")
	bothExec(t, es, "INSERT INTO Visits VALUES (103, 3)")
	bothExec(t, es, "INSERT INTO Visits SELECT VisitID + 10, PatientID FROM Visits WHERE PatientID = 1")
	shadow := sameTable(t, es, "Shadow")
	want := []string{
		"INTEGER:100 | VARCHAR:Alice", "INTEGER:101 | VARCHAR:Bob", "INTEGER:102 | VARCHAR:Alice",
		"INTEGER:103 | VARCHAR:Carol", "INTEGER:110 | VARCHAR:Alice", "INTEGER:112 | VARCHAR:Alice",
	}
	if strings.Join(shadow, "\n") != strings.Join(want, "\n") {
		t.Fatalf("Shadow =\n%s\nwant\n%s", strings.Join(shadow, "\n"), strings.Join(want, "\n"))
	}
	if got := sameTable(t, es, "Log"); len(got) != 4 {
		t.Fatalf("Log = %v, want one row per body read of Alice", got)
	}
}

// TestTriggerPlanFixedClockLog: with the session clock fixed, the
// access log the reused action writes is exactly the rows a fresh
// compile writes, byte for byte, in the paper's Log_Access shape.
func TestTriggerPlanFixedClockLog(t *testing.T) {
	es := triggerPair(t, `
		CREATE TABLE AccessLog (At VARCHAR(40), UserID VARCHAR(30), SQL VARCHAR(600), PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Old AS
			SELECT * FROM Patients WHERE Age > 30
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Access ON ACCESS TO Audit_Old AS
			INSERT INTO AccessLog SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
	`)
	for _, e := range es {
		e.SetUser("dr_mallory")
	}
	queries := []string{
		"SELECT Name FROM Patients WHERE Age > 40",
		"SELECT Name FROM Patients WHERE PatientID = 1",
		"SELECT Name FROM Patients WHERE Age > 40",
		"SELECT COUNT(*) FROM Patients",
	}
	for _, q := range queries {
		bothExec(t, es, q)
	}
	got := sameTable(t, es, "AccessLog")
	row := func(sql string, id int) string {
		return fmt.Sprintf("VARCHAR:2026-01-02 03:04:05 | VARCHAR:dr_mallory | VARCHAR:%s | INTEGER:%d", sql, id)
	}
	want := []string{
		row(queries[0], 3), row(queries[0], 5),
		row(queries[1], 1),
		row(queries[2], 3), row(queries[2], 5),
		row(queries[3], 1), row(queries[3], 3), row(queries[3], 5),
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("AccessLog =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	var dumps [2]bytes.Buffer
	for i, e := range es {
		if err := e.Dump(&dumps[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(dumps[0].Bytes(), dumps[1].Bytes()) {
		t.Fatal("database dumps differ between the cached and the reference engine")
	}
}

// TestTriggerPlanConcurrentSessions: sessions firing the same trigger
// at once each plan and reuse their own copy of the action (run it
// under -race), and every log row carries its own session's user.
func TestTriggerPlanConcurrentSessions(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE TABLE AccessLog (At VARCHAR(40), UserID VARCHAR(30), SQL VARCHAR(600), PatientID INT);
		CREATE AUDIT EXPRESSION Audit_Old AS
			SELECT * FROM Patients WHERE Age > 30
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE TRIGGER Log_Access ON ACCESS TO Audit_Old AS
			INSERT INTO AccessLog SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED;
	`); err != nil {
		t.Fatal(err)
	}
	const sessions, firings = 2, 200
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		s := e.NewSession()
		s.SetUser(fmt.Sprintf("user%d", i))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < firings; j++ {
				if _, err := s.Exec(fmt.Sprintf("SELECT Name FROM Patients WHERE PatientID = %d", 1+j%5)); err != nil {
					errs <- err
					return
				}
			}
			if n := len(triggerEntries(s)); n != 1 {
				errs <- fmt.Errorf("%s holds %d trigger entries, want 1", s.User(), n)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Patients 1, 3 and 5 are over 30: three of every five statements fire.
	for i := 0; i < sessions; i++ {
		r := mustQuery(t, e, fmt.Sprintf("SELECT COUNT(*) FROM AccessLog WHERE UserID = 'user%d'", i))
		if got := r.Rows[0][0].Int(); got != firings*3/5 {
			t.Errorf("user%d logged %d rows, want %d", i, got, firings*3/5)
		}
	}
}
