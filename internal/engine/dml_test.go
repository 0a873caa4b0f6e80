package engine

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"auditdb/internal/value"
	"auditdb/internal/wal"
)

// rowsOf renders a query's rows, in result order.
func rowsOf(t *testing.T, e *Engine, sql string) string {
	t.Helper()
	return strings.Join(renderRows(mustQuery(t, e, sql)), " ")
}

// TestTriggerBodyDMLSeesNewOld: a trigger body's UPDATE and DELETE
// resolve NEW./OLD. references in WHERE and SET, as its INSERT and
// SELECT always did.
func TestTriggerBodyDMLSeesNewOld(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE P (ID INT PRIMARY KEY, Cnt INT, Last INT);
		CREATE TABLE C (ID INT PRIMARY KEY, PID INT, X INT);
		INSERT INTO P VALUES (1, 0, 0), (2, 0, 0), (3, 0, 0);
		CREATE TRIGGER count_child ON C AFTER INSERT AS
			UPDATE P SET Cnt = Cnt + 1, Last = NEW.X * 10 WHERE ID = NEW.PID;
		CREATE TRIGGER drop_parent ON C AFTER DELETE AS
			DELETE FROM P WHERE ID = OLD.PID;
	`); err != nil {
		t.Fatal(err)
	}
	mustExec(t, e, "INSERT INTO C VALUES (10, 1, 7), (11, 1, 9), (12, 2, 5)")
	if got, want := rowsOf(t, e, "SELECT ID, Cnt, Last FROM P ORDER BY ID"), "(1, 2, 90) (2, 1, 50) (3, 0, 0)"; got != want {
		t.Fatalf("after the inserts P = %v, want %v", got, want)
	}
	mustExec(t, e, "DELETE FROM C WHERE ID = 12")
	if got, want := rowsOf(t, e, "SELECT ID FROM P ORDER BY ID"), "(1) (3)"; got != want {
		t.Fatalf("after the delete P = %v, want %v", got, want)
	}
}

// TestDMLRowsScanned: an UPDATE's or DELETE's read is counted like a
// SELECT's. A primary-key point write reads its one row through the
// index; a write on an unindexed column reads the table; the slow-query
// line carries the count.
func TestDMLRowsScanned(t *testing.T) {
	e := newScanStatDB(t)
	var buf bytes.Buffer
	e.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	e.SetSlowQueryThreshold(time.Nanosecond)
	for _, c := range []struct {
		sql      string
		affected int
		scanned  int64
	}{
		{"UPDATE big SET grp = grp + 1 WHERE k = 1234", 1, 1},
		{"UPDATE big SET grp = 0 WHERE grp = 3", 200, 2000},
		{"DELETE FROM big WHERE k = 7", 1, 1},
		{"DELETE FROM big WHERE grp = 9", 200, 1999},
	} {
		buf.Reset()
		before := e.StatsSnapshot()["rows_scanned"]
		if r := mustExec(t, e, c.sql); r.RowsAffected != c.affected {
			t.Errorf("%s: affected %d rows, want %d", c.sql, r.RowsAffected, c.affected)
		}
		if d := e.StatsSnapshot()["rows_scanned"] - before; d != c.scanned {
			t.Errorf("%s: rows_scanned moved by %d, want %d", c.sql, d, c.scanned)
		}
		if want := fmt.Sprintf("rows_scanned=%d ", c.scanned); !strings.Contains(buf.String(), want) {
			t.Errorf("%s: slow-query line lacks %q:\n%s", c.sql, want, buf.String())
		}
	}

	// A prepared UPDATE binds its key per run and still takes the index.
	p, err := e.Prepare("UPDATE big SET grp = ? WHERE k = ?")
	if err != nil {
		t.Fatal(err)
	}
	before := e.StatsSnapshot()["rows_scanned"]
	r, err := p.Run(value.NewInt(42), value.NewInt(1500))
	if err != nil {
		t.Fatal(err)
	}
	if d := e.StatsSnapshot()["rows_scanned"] - before; r.RowsAffected != 1 || d != 1 {
		t.Errorf("prepared point UPDATE affected %d rows and scanned %d, want 1 and 1", r.RowsAffected, d)
	}
	if got := rowsOf(t, e, "SELECT grp FROM big WHERE k = 1500"); got != "(42)" {
		t.Errorf("prepared UPDATE wrote %s, want (42)", got)
	}
}

// TestDMLSetErrorWritesNothing: every SET value is computed before the
// first write, so a SET that fails on the third matched row leaves the
// table, the audit expression's ID set and the log as they were.
func TestDMLSetErrorWritesNothing(t *testing.T) {
	dir := t.TempDir()
	e := openDurable(t, dir)
	if _, err := e.ExecScript(`
		CREATE TABLE T (ID INT PRIMARY KEY, V INT, D INT);
		INSERT INTO T VALUES (1, 1, 1), (2, 2, 1), (3, 3, 0), (4, 4, 1), (5, 50, 1);
		CREATE AUDIT EXPRESSION Big_V AS SELECT * FROM T WHERE V > 10
			FOR SENSITIVE TABLE T, PARTITION BY ID;
	`); err != nil {
		t.Fatal(err)
	}
	idSet := func() string {
		ae, ok := e.Registry().Get("Big_V")
		if !ok {
			t.Fatal("audit expression Big_V missing")
		}
		return fmt.Sprint(ae.IDs())
	}
	table, ids := dumpString(t, e), idSet()
	_, err := e.Exec("UPDATE T SET V = V + 100 / D WHERE V < 10")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Fatalf("UPDATE error = %v, want division by zero", err)
	}
	if got := dumpString(t, e); got != table {
		t.Errorf("failed UPDATE changed the table:\n%s\nwant\n%s", got, table)
	}
	if got := idSet(); got != ids {
		t.Errorf("failed UPDATE moved the ID set to %s, want %s", got, ids)
	}
	if err := e.CloseWAL(); err != nil {
		t.Fatal(err)
	}
	m, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	for _, c := range rec.Commits {
		for _, op := range c.Ops {
			if op.Kind == wal.OpUpdate {
				t.Errorf("the log holds an update of %s: %v -> %v", op.Table, op.Old, op.New)
			}
		}
	}
}

// TestDMLAppliesInRowIDOrder: a secondary index returns its candidates
// in insertion order, which an UPDATE moving a row out of a key and back
// scrambles; a multi-row UPDATE through that index still applies its
// rows, and fires its AFTER UPDATE trigger, in ascending RowID order.
func TestDMLAppliesInRowIDOrder(t *testing.T) {
	e := New()
	if _, err := e.ExecScript(`
		CREATE TABLE T (ID INT PRIMARY KEY, G INT, V INT);
		CREATE TABLE Fired (ID INT);
		CREATE INDEX t_g ON T (G);
		INSERT INTO T VALUES (0, 5, 0), (1, 5, 0), (2, 7, 0), (3, 5, 0), (4, 7, 0), (5, 5, 0);
		CREATE TRIGGER log_update ON T AFTER UPDATE AS INSERT INTO Fired VALUES (NEW.ID);
		UPDATE T SET G = 6 WHERE ID = 1;
		UPDATE T SET G = 5 WHERE ID = 1;
		UPDATE T SET G = 6 WHERE ID = 0;
		UPDATE T SET G = 5 WHERE ID = 0;
		DELETE FROM Fired;
	`); err != nil {
		t.Fatal(err)
	}
	before := e.StatsSnapshot()["rows_scanned"]
	if r := mustExec(t, e, "UPDATE T SET V = V + 1 WHERE G = 5"); r.RowsAffected != 4 {
		t.Fatalf("affected %d rows, want 4", r.RowsAffected)
	}
	if d := e.StatsSnapshot()["rows_scanned"] - before; d != 4 {
		t.Errorf("the UPDATE read %d rows, want the index's 4", d)
	}
	if got, want := rowsOf(t, e, "SELECT ID FROM Fired"), "(0) (1) (3) (5)"; got != want {
		t.Errorf("AFTER UPDATE fired for %v, want ascending RowID order %v", got, want)
	}
}

// benchPointWrite loads c(k INT PRIMARY KEY, v INT, pad) with n rows.
func benchPointWrite(b *testing.B, n int) *Engine {
	b.Helper()
	e := New()
	if _, err := e.Exec("CREATE TABLE c (k INT PRIMARY KEY, v INT, pad VARCHAR(20))"); err != nil {
		b.Fatal(err)
	}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i)), value.NewInt(0), value.NewString("padding")}
	}
	if err := e.LoadRows("c", rows); err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkPointWrite times a prepared primary-key point UPDATE, one
// that matches no row, and the point SELECT on the same key, at two
// table sizes: a point write reads through the index, so its cost does
// not grow with the table.
//
//	go test -run '^$' -bench PointWrite ./internal/engine
func BenchmarkPointWrite(b *testing.B) {
	for _, n := range []int{3000, 15000} {
		e := benchPointWrite(b, n)
		for _, c := range []struct {
			name, sql string
			offset    int64 // added to the key: past the table matches no row
		}{
			{"update", "UPDATE c SET v = v + 1 WHERE k = ?", 0},
			{"update_miss", "UPDATE c SET v = v + 1 WHERE k = ?", int64(n)},
			{"select", "SELECT v FROM c WHERE k = ?", 0},
		} {
			p, err := e.Prepare(c.sql)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/rows=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := p.Run(value.NewInt(int64(i%n) + c.offset)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
