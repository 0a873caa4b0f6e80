package engine

import (
	"fmt"
	"strings"
	"testing"

	"auditdb/internal/ast"
)

// TestScriptPlanCollision: every statement of a script is planned as
// itself. Plans are cached by canonical statement text, never by the
// text a statement arrived in — a script's text, or the INSERT that
// wraps an INSERT ... SELECT, would otherwise hand a later SELECT of
// the same script the first one's plan. Each script runs twice through
// ExecMulti (the pgwire simple path) and twice through ExecScript (the
// line-JSON exec path), so the repeats meet whatever the first run
// cached.
func TestScriptPlanCollision(t *testing.T) {
	rowsOf := func(r *Result) string {
		var b strings.Builder
		for _, row := range r.Rows {
			for i, v := range row {
				if i > 0 {
					b.WriteByte(',')
				}
				b.WriteString(v.SQL())
			}
			b.WriteByte(';')
		}
		return b.String()
	}
	type want struct{ cols, rows string }
	cases := []struct {
		script string
		want   []want // per statement; DML has no columns
	}{
		{"SELECT x FROM a; SELECT y, z FROM b", []want{{"x", "1;"}, {"y,z", "2,'b';"}}},
		{"INSERT INTO c SELECT x FROM a; SELECT y FROM b", []want{{"", ""}, {"y", "2;"}}},
	}
	for _, tc := range cases {
		e := New()
		mustExecScript(t, e, `CREATE TABLE a (x INT); CREATE TABLE b (y INT, z VARCHAR(5)); CREATE TABLE c (x INT);
			INSERT INTO a VALUES (1); INSERT INTO b VALUES (2, 'b')`)
		check := func(path string, i int, r *Result) {
			t.Helper()
			got := want{strings.Join(r.Columns, ","), rowsOf(r)}
			if got != tc.want[i] {
				t.Fatalf("%s %q statement %d = %+v, want %+v", path, tc.script, i, got, tc.want[i])
			}
		}
		for run := 0; run < 2; run++ {
			i := 0
			err := e.DefaultSession().ExecMulti(tc.script, func(_ ast.Stmt, r *Result, err error) bool {
				if err != nil {
					t.Fatalf("ExecMulti %q statement %d: %v", tc.script, i, err)
				}
				check(fmt.Sprintf("ExecMulti run %d", run), i, r)
				i++
				return true
			})
			if err != nil || i != len(tc.want) {
				t.Fatalf("ExecMulti %q: ran %d statements, err %v", tc.script, i, err)
			}
			r, err := e.ExecScript(tc.script)
			if err != nil {
				t.Fatalf("ExecScript %q: %v", tc.script, err)
			}
			check(fmt.Sprintf("ExecScript run %d", run), len(tc.want)-1, r)
		}
		// Four INSERT ... SELECTs copied a's one row each time.
		if strings.HasPrefix(tc.script, "INSERT") {
			if got := rowsOf(mustQuery(t, e, "SELECT x FROM c")); got != "1;1;1;1;" {
				t.Fatalf("c after four INSERT ... SELECTs = %q, want four copies of a's row", got)
			}
		}
	}
}

func mustExecScript(t *testing.T, e *Engine, script string) {
	t.Helper()
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
}
