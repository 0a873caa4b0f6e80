package engine

import (
	"fmt"
	"strings"
	"testing"
)

// newScanStatDB builds a 2000-row table for bounded-work assertions.
func newScanStatDB(t *testing.T) *Engine {
	t.Helper()
	e := New()
	if _, err := e.Exec("CREATE TABLE big (k INT PRIMARY KEY, grp INT)"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO big VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d)", i, i%10)
	}
	if _, err := e.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	return e
}

func scannedDelta(t *testing.T, e *Engine, sql string) int64 {
	t.Helper()
	before := e.StatsSnapshot()["rows_scanned"]
	if _, err := e.Query(sql); err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return e.StatsSnapshot()["rows_scanned"] - before
}

// TestRowsScannedStat pins the engine-visible bounded-work contract of
// the streaming scan kernel: a LIMIT 1 touches a handful of storage
// rows, a point lookup touches exactly its index result, and a full
// aggregate touches the whole table — all reported via the
// rows_scanned counter.
func TestRowsScannedStat(t *testing.T) {
	e := newScanStatDB(t)

	if d := scannedDelta(t, e, "SELECT k FROM big LIMIT 1"); d <= 0 || d >= 2000 {
		t.Errorf("LIMIT 1 scanned %d rows, want a small positive count (not the whole heap)", d)
	}
	if d := scannedDelta(t, e, "SELECT grp FROM big WHERE k = 1234"); d != 1 {
		t.Errorf("point lookup scanned %d rows, want 1", d)
	}
	if d := scannedDelta(t, e, "SELECT COUNT(*) FROM big"); d != 2000 {
		t.Errorf("full aggregate scanned %d rows, want 2000", d)
	}
}

// TestPredInterpretedRowsStat: a scan predicate the compiled fast path
// claims — FLOAT, DATE and STRING terms included — sends no row to the
// interpreter; a shape it cannot compile sends every row it reads, and
// the count reaches both the stats key and /metrics.
func TestPredInterpretedRowsStat(t *testing.T) {
	e := New()
	if _, err := e.Exec("CREATE TABLE typed (k INT PRIMARY KEY, f FLOAT, d DATE, s VARCHAR(10))"); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("INSERT INTO typed VALUES ")
	for i := 0; i < 100; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d.5, DATE '1995-03-%02d', 'seg%d')", i, i, 1+i%28, i%5)
	}
	if _, err := e.Exec(b.String()); err != nil {
		t.Fatal(err)
	}
	interpreted := func(sql string) int64 {
		t.Helper()
		before := e.StatsSnapshot()["pred_interpreted_rows"]
		if _, err := e.Query(sql); err != nil {
			t.Fatalf("Query(%q): %v", sql, err)
		}
		return e.StatsSnapshot()["pred_interpreted_rows"] - before
	}
	if n := interpreted("SELECT k FROM typed WHERE f > 10.25 AND d < DATE '1995-03-20' AND s = 'seg3' AND k >= 1"); n != 0 {
		t.Errorf("compiled typed terms sent %d rows to the interpreter, want 0", n)
	}
	if n := interpreted("SELECT k FROM typed WHERE s LIKE 'seg%'"); n != 100 {
		t.Errorf("an uncompiled LIKE sent %d rows to the interpreter, want 100", n)
	}
	var m strings.Builder
	if err := e.Metrics().WritePrometheus(&m); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(m.String(), "auditdb_pred_interpreted_rows_total 100") {
		t.Errorf("/metrics lacks the interpreted-row counter:\n%s", m.String())
	}
}
