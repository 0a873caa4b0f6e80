package engine

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"auditdb/internal/triage"
	"auditdb/internal/value"
)

// The output of the four SHOW statements the system relations
// replaced, built exactly as they built it (columns and rows), from the
// same sources: each relation must equal its former statement row for
// row.

func showTracesOracle(e *Engine) *Result {
	res := &Result{Columns: []string{"qid", "user", "elapsed_us", "sampled", "spans", "error", "sql"}}
	for _, t := range e.traceRing.Snapshot() {
		sampled := value.Value{Kind: value.KindBool}
		if t.Sampled {
			sampled.I = 1
		}
		res.Rows = append(res.Rows, value.Row{
			value.Value{Kind: value.KindInt, I: int64(t.QID)},
			value.NewString(t.User),
			value.Value{Kind: value.KindInt, I: t.Elapsed / 1000},
			sampled,
			value.Value{Kind: value.KindInt, I: int64(len(t.Spans))},
			value.NewString(t.Err),
			value.NewString(t.SQL),
		})
	}
	return res
}

func showTraceOracle(e *Engine, qid uint64) *Result {
	res := &Result{Columns: []string{"trace"}}
	for _, line := range e.traceRing.Get(qid).Render() {
		res.Rows = append(res.Rows, value.Row{value.NewString(line)})
	}
	return res
}

func showAuditQueueOracle(e *Engine) *Result {
	res := &Result{Columns: []string{"priority", "user", "expression", "qid", "audit_seq", "ids", "sql"}}
	for _, ev := range e.triage.Snapshot() {
		res.Rows = append(res.Rows, value.Row{
			value.NewInt(int64(ev.Priority)),
			value.NewString(ev.User),
			value.NewString(ev.Expr),
			value.NewInt(int64(ev.QID)),
			value.NewInt(int64(ev.AuditSeq)),
			value.NewInt(int64(ev.NumIDs)),
			value.NewString(ev.SQL),
		})
	}
	return res
}

func showAuditVerdictsOracle(e *Engine) *Result {
	res := &Result{Columns: []string{"seq", "audit_seq", "outcome", "priority", "user", "expression", "qid", "suspicious", "elapsed_us"}}
	for _, v := range e.triage.Verdicts() {
		res.Rows = append(res.Rows, value.Row{
			value.NewInt(int64(v.ChainSeq)),
			value.NewInt(int64(v.AuditSeq)),
			value.NewString(v.Outcome),
			value.NewInt(int64(v.Priority)),
			value.NewString(v.User),
			value.NewString(v.Expr),
			value.NewInt(int64(v.QID)),
			value.NewInt(int64(v.Suspicious)),
			value.NewInt(v.ElapsedNanos / 1000),
		})
	}
	return res
}

// spansOracle is sys.spans from its sources: every retained trace's
// Render lines, oldest trace first.
func spansOracle(e *Engine) []value.Row {
	var rows []value.Row
	snap := e.traceRing.Snapshot()
	for i := len(snap) - 1; i >= 0; i-- {
		for _, line := range snap[i].Render() {
			rows = append(rows, value.Row{value.NewInt(int64(snap[i].QID)), value.NewString(line)})
		}
	}
	return rows
}

// holdTriage replaces the engine's triage service with one whose single
// worker signs verdicts for the first n events and then blocks, so the
// events after them stay resident in the queue.
func holdTriage(t *testing.T, e *Engine, n int32) *triage.Service {
	t.Helper()
	release := make(chan struct{})
	var served atomic.Int32
	svc := triage.NewService(triage.Config{Workers: 1}, func(ctx context.Context, ev triage.Event) (triage.Result, error) {
		if served.Add(1) > n {
			select {
			case <-release:
			case <-ctx.Done():
			}
		}
		return triage.Result{ChainSeq: ev.AuditSeq + 1, Outcome: []string{"confirmed", "refuted"}[ev.AuditSeq%2], Suspicious: ev.NumIDs}, nil
	}, nil)
	svc.Start()
	t.Cleanup(func() {
		close(release)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Stop(ctx)
	})
	e.triage = svc
	return svc
}

// TestSysRelations drives the system relations: each equals the SHOW
// statement it replaced and its source, a cached plan reads fresh rows
// on every run, one canonical plan serves each literal qid its own
// trace, a join with a sensitive table is still audited, and what they
// refuse stays refused.
func TestSysRelations(t *testing.T) {
	e := newAuditedHealthDB(t)
	e.SetTraceSampling(1)
	alice := mustQuery(t, e, "SELECT Name FROM Patients WHERE Name = 'Alice'")
	bob := mustQuery(t, e, "SELECT Name FROM Patients WHERE Name = 'Bob'")
	if alice.QID == 0 || bob.QID == 0 {
		t.Fatal("sampled queries have no qid")
	}

	// Three events are verified one at a time (a deterministic verdict
	// order), the fourth blocks the worker, and the last three stay
	// resident.
	svc := holdTriage(t, e, 3)
	settle := func(depth, pending int) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			if st := svc.Stats(); st.Depth == depth && st.Pending == pending {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("triage never settled at depth %d: %+v", depth, svc.Stats())
			}
		}
	}
	for i, p := range []int{2, 0, 5, 1, 5, 3, 0} {
		svc.Enqueue(triage.Event{
			AuditSeq: uint64(10 + i), QID: uint64(100 + i), User: fmt.Sprintf("u%d", i),
			Expr: "Audit_Alice", SQL: fmt.Sprintf("SELECT %d", i), NumIDs: i + 1, Priority: p,
		})
		switch {
		case i < 3:
			settle(0, 0)
		case i == 3:
			settle(0, 1)
		}
	}
	settle(3, 4)

	// Unsampled from here on: the comparisons leave the ring as it is.
	e.SetTraceSampling(0)
	t.Run("equal the former SHOW output", func(t *testing.T) {
		for _, tc := range []struct {
			sql   string
			want  *Result
			kinds []value.Kind
		}{
			{"SELECT * FROM sys.traces", showTracesOracle(e),
				[]value.Kind{value.KindInt, value.KindString, value.KindInt, value.KindBool, value.KindInt, value.KindString, value.KindString}},
			{fmt.Sprintf("SELECT trace FROM sys.spans WHERE qid = %d", alice.QID), showTraceOracle(e, alice.QID),
				[]value.Kind{value.KindString}},
			{"SELECT * FROM sys.audit_queue", showAuditQueueOracle(e),
				[]value.Kind{value.KindInt, value.KindString, value.KindString, value.KindInt, value.KindInt, value.KindInt, value.KindString}},
			{"SELECT * FROM sys.verdicts", showAuditVerdictsOracle(e),
				[]value.Kind{value.KindInt, value.KindInt, value.KindString, value.KindInt, value.KindString, value.KindString, value.KindInt, value.KindInt, value.KindInt}},
			{"SELECT * FROM sys.spans", &Result{Columns: []string{"qid", "trace"}, Rows: spansOracle(e)},
				[]value.Kind{value.KindInt, value.KindString}},
		} {
			got := mustQuery(t, e, tc.sql)
			if len(tc.want.Rows) < 2 {
				t.Fatalf("%s: oracle has %d rows; the comparison needs several", tc.sql, len(tc.want.Rows))
			}
			if !reflect.DeepEqual(got.Columns, tc.want.Columns) || !reflect.DeepEqual(got.Kinds, tc.kinds) {
				t.Errorf("%s: columns %v %v, want %v %v", tc.sql, got.Columns, got.Kinds, tc.want.Columns, tc.kinds)
			}
			if !reflect.DeepEqual(got.Rows, tc.want.Rows) {
				t.Errorf("%s:\n got %v\nwant %v", tc.sql, got.Rows, tc.want.Rows)
			}
		}
		if q := mustQuery(t, e, "SELECT priority, qid FROM sys.audit_queue"); fmt.Sprint(q.Rows) != "[(5, 104) (3, 105) (0, 106)]" {
			t.Errorf("audit queue not in service order: %v", q.Rows)
		}
		if v := mustQuery(t, e, "SELECT seq, outcome FROM sys.verdicts"); fmt.Sprint(v.Rows) != "[(13, confirmed) (12, refuted) (11, confirmed)]" {
			t.Errorf("verdicts not newest first: %v", v.Rows)
		}
	})

	t.Run("a view and EXPLAIN ANALYZE read them", func(t *testing.T) {
		mustExec(t, e, "CREATE VIEW recent AS SELECT qid, sql FROM sys.traces")
		got := mustQuery(t, e, "SELECT * FROM recent")
		var want []value.Row
		for _, row := range showTracesOracle(e).Rows {
			want = append(want, value.Row{row[0], row[6]})
		}
		if !reflect.DeepEqual(got.Rows, want) {
			t.Errorf("view over sys.traces:\n got %v\nwant %v", got.Rows, want)
		}
		var out strings.Builder
		for _, row := range mustExec(t, e, "EXPLAIN ANALYZE SELECT COUNT(*) FROM sys.traces").Rows {
			out.WriteString(row[0].Str() + "\n")
		}
		if !strings.Contains(out.String(), "Values(sys.traces)") {
			t.Errorf("EXPLAIN ANALYZE:\n%s", out.String())
		}
	})

	e.SetTraceSampling(1)
	t.Run("a cached plan reads fresh rows", func(t *testing.T) {
		s := e.NewSession()
		hits := e.StatsSnapshot()["plan_cache_hits"]
		prevLen, prevQID := -1, uint64(0)
		for i := 0; i < 3; i++ {
			res, err := s.Query("SELECT qid FROM sys.traces")
			if err != nil {
				t.Fatal(err)
			}
			if prevLen >= 0 && (len(res.Rows) != prevLen+1 || uint64(res.Rows[0][0].Int()) != prevQID) {
				t.Fatalf("run %d: %d rows, newest qid %v; want %d rows, newest qid %d (the previous run)",
					i, len(res.Rows), res.Rows[0][0], prevLen+1, prevQID)
			}
			prevLen, prevQID = len(res.Rows), res.QID
		}
		if got := e.StatsSnapshot()["plan_cache_hits"] - hits; got < 2 {
			t.Fatalf("plan_cache_hits +%d, want the repeats served from the cache", got)
		}
	})

	t.Run("one canonical plan, each qid its own trace", func(t *testing.T) {
		hits := e.StatsSnapshot()["plan_cache_hits"]
		for _, qid := range []uint64{alice.QID, bob.QID} {
			res := mustQuery(t, e, fmt.Sprintf("SELECT trace FROM sys.spans WHERE qid = %d", qid))
			if len(res.Rows) < 2 || !strings.HasPrefix(res.Rows[0][0].Str(), fmt.Sprintf("qid=%d ", qid)) {
				t.Fatalf("qid %d: %v", qid, res.Rows)
			}
		}
		if got := e.StatsSnapshot()["plan_cache_hits"] - hits; got < 1 {
			t.Fatalf("plan_cache_hits +%d, want the second qid served by the first's plan", got)
		}
	})

	t.Run("a join with a sensitive table is audited", func(t *testing.T) {
		logged := len(mustQuery(t, e, "SELECT * FROM Log").Rows)
		res := mustQuery(t, e, fmt.Sprintf(
			"SELECT p.Name, t.qid FROM Patients p JOIN sys.traces t ON t.qid = %d WHERE p.Name = 'Alice'", alice.QID))
		if len(res.Rows) != 1 {
			t.Fatalf("join rows = %v", res.Rows)
		}
		if ids := fmt.Sprint(res.Accessed.IDs("Audit_Alice")); ids != "[1]" {
			t.Errorf("ACCESSED = %s, want [1]", ids)
		}
		if n := len(mustQuery(t, e, "SELECT * FROM Log").Rows); n != logged+1 {
			t.Errorf("Log_Alice logged %d rows, want 1", n-logged)
		}
	})

	t.Run("DML, IF and NOTIFY read them", func(t *testing.T) {
		var notes []string
		e.OnNotify(func(m string) { notes = append(notes, m) })
		mustExecScript(t, e, `
			CREATE TABLE Kept (qid INT);
			CREATE TRIGGER Kept_Notify ON Kept AFTER INSERT AS
				IF (SELECT COUNT(*) = 1 FROM sys.traces WHERE qid = NEW.qid)
				NOTIFY (SELECT sql FROM sys.traces WHERE qid = NEW.qid)`)
		mustExec(t, e, fmt.Sprintf("INSERT INTO Kept VALUES ((SELECT MIN(qid) FROM sys.traces WHERE qid = %d))", alice.QID))
		if fmt.Sprint(notes) != "[SELECT Name FROM Patients WHERE Name = 'Alice']" {
			t.Errorf("notifications = %q", notes)
		}
		mustExec(t, e, "INSERT INTO Kept SELECT qid FROM sys.traces")
		kept := len(mustQuery(t, e, "SELECT * FROM Kept").Rows)
		if del := mustExec(t, e, "DELETE FROM Kept WHERE qid IN (SELECT qid FROM sys.traces)"); kept < 2 || del.RowsAffected != kept {
			t.Errorf("deleted %d of %d kept qids", del.RowsAffected, kept)
		}
	})

	t.Run("a firing's statement and verify traces both appear", func(t *testing.T) {
		e.retainVerifyTrace(triage.Event{QID: alice.QID, User: "system", Expr: "Audit_Alice", SQL: "SELECT verify"}, "confirmed", 1, time.Millisecond, "static", 0)
		stmt := showTraceOracle(e, alice.QID).Rows // the older: the statement's
		res := mustQuery(t, e, fmt.Sprintf("SELECT trace FROM sys.spans WHERE qid = %d", alice.QID))
		if len(res.Rows) <= len(stmt) || !reflect.DeepEqual(res.Rows[:len(stmt)], stmt) ||
			!strings.Contains(res.Rows[len(res.Rows)-1][0].Str(), "triage.verify") {
			t.Fatalf("want the statement's trace then the verify trace, got %v", res.Rows)
		}
	})

	t.Run("refusals", func(t *testing.T) {
		for sql, want := range map[string]string{
			"SELECT * FROM sys.nosuch":          `unknown table "sys.nosuch"`,
			"SELECT * FROM nosuch.traces":       `unknown table "nosuch.traces"`,
			"SHOW TRACES":                       "expected statement",
			"SHOW TRACE FOR 1":                  "expected statement",
			"SHOW AUDIT QUEUE":                  "expected statement",
			"SHOW AUDIT VERDICTS":               "expected statement",
			"INSERT INTO sys.traces VALUES (1)": "",
			"UPDATE sys.traces SET qid = 1":     "",
			"DELETE FROM sys.traces":            "",
			"CREATE TABLE sys.traces (qid INT)": "",
			"CREATE AUDIT EXPRESSION Audit_Traced AS SELECT * FROM Patients, sys.traces " +
				"FOR SENSITIVE TABLE Patients, PARTITION BY PatientID": `unknown table "sys.traces"`,
		} {
			_, err := e.Exec(sql)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want %q", sql, err, want)
			}
		}
	})
}
