package offline_test

import (
	"fmt"
	"strings"
	"testing"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/offline"
)

// setupBig loads a table spanning several storage chunks with an audit
// expression whose watch set sits in the last chunk, so candidate
// pruning (Claim 3.5 via sketches) has something to skip.
func setupBig(t *testing.T) (*engine.Engine, *core.AuditExpression) {
	t.Helper()
	e := engine.New()
	if _, err := e.Exec("CREATE TABLE Events (EventID INT PRIMARY KEY, Kind INT, Score INT)"); err != nil {
		t.Fatal(err)
	}
	const rows = 10240
	var b strings.Builder
	for i := 0; i < rows; i++ {
		if b.Len() == 0 {
			b.WriteString("INSERT INTO Events VALUES ")
		} else {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "(%d, %d, %d)", i, i%7, i%100)
		if (i+1)%1024 == 0 || i == rows-1 {
			if _, err := e.Exec(b.String()); err != nil {
				t.Fatal(err)
			}
			b.Reset()
		}
	}
	_, err := e.Exec(`CREATE AUDIT EXPRESSION Audit_Tail AS
		SELECT * FROM Events WHERE EventID BETWEEN 9000 AND 9050
		FOR SENSITIVE TABLE Events, PARTITION BY EventID`)
	if err != nil {
		t.Fatal(err)
	}
	ae, ok := e.Registry().Get("Audit_Tail")
	if !ok {
		t.Fatal("audit expression missing")
	}
	return e, ae
}

func auditBoth(t *testing.T, e *engine.Engine, ae *core.AuditExpression, sql string) (pruned, exact *offline.Report) {
	t.Helper()
	aud := offline.New(e.Catalog(), e.Store())
	pruned, err := aud.Audit(sql, ae)
	if err != nil {
		t.Fatalf("pruned audit of %q: %v", sql, err)
	}
	aud.NoSkip = true
	exact, err = aud.Audit(sql, ae)
	if err != nil {
		t.Fatalf("unpruned audit of %q: %v", sql, err)
	}
	return pruned, exact
}

// sameReports checks a default-auditor report against the literal
// (NoSkip) one: identical verdicts, and a candidate set that is the
// literal auditor's leaf superset when the default auditor ran the
// leaf pass too, and no larger than it when it ran a lineage pass.
func sameReports(fast, literal *offline.Report) bool {
	if !sameIDs(fast.AccessedIDs, literal.AccessedIDs) || fast.Candidates > literal.Candidates {
		return false
	}
	for reason := range fast.DeferReasons {
		switch reason {
		case offline.ReasonAggNoCount, offline.ReasonTopKMember, offline.ReasonVanished:
		default:
			return fast.Candidates == literal.Candidates
		}
	}
	return true
}

// TestOfflineSkipEquivalenceSmall: on the seed scenarios the default
// auditor (lineage decisions, chunk skipping) must produce verdicts
// identical to the literal (NoSkip) auditor.
func TestOfflineSkipEquivalenceSmall(t *testing.T) {
	e, _, ae := setup(t)
	for _, sql := range []string{
		"SELECT * FROM Patients WHERE Name = 'Alice'",
		"SELECT P.Name FROM Patients P, Disease D WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'",
		"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip",
		"SELECT Name FROM Patients ORDER BY Age DESC LIMIT 2",
		"SELECT * FROM Patients WHERE EXISTS (SELECT 1 FROM Disease D WHERE D.PatientID = Patients.PatientID AND D.Disease = 'cancer')",
	} {
		pruned, exact := auditBoth(t, e, ae, sql)
		if !sameReports(pruned, exact) {
			t.Errorf("%q: default report (ids=%v cand=%d) != literal (ids=%v cand=%d)",
				sql, ids(pruned), pruned.Candidates, ids(exact), exact.Candidates)
		}
	}
}

// TestOfflineSkipEquivalenceMultiChunk: same property on a table large
// enough for chunk pruning to engage, with the exact work counts of
// both auditors on each shape. The table is 10240 rows in three
// chunks; the 51 watched IDs all sit in the last one (2048 rows).
func TestOfflineSkipEquivalenceMultiChunk(t *testing.T) {
	e, ae := setupBig(t)
	const table, lastChunk = 10240, 2048
	for _, tc := range []struct {
		sql string
		// Default auditor: candidates, deletion tests, executions and
		// rows scanned. Literal auditor: candidates (leaf superset); it
		// runs 2 + candidates executions of a full-table scan each.
		candidates, tests, executions int
		scanned                       int64
		leaf                          int
	}{
		// Select-join, audit-only lineage run: the two chunks without a
		// watched ID are skipped outright.
		{"SELECT * FROM Events WHERE Score BETWEEN 10 AND 12", 3, 0, 1, lastChunk, 3},
		{"SELECT * FROM Events WHERE EventID BETWEEN 8990 AND 9060", 51, 0, 1, lastChunk, 51},
		// COUNT(*) aggregates: same single sublinear run (Claim 3.5
		// pruning via sketches, now with nothing left to test).
		{"SELECT COUNT(*), MIN(Score) FROM Events WHERE Kind = 3", 7, 0, 1, lastChunk, 7},
		{"SELECT Kind, COUNT(*) FROM Events GROUP BY Kind", 51, 0, 1, lastChunk, 51},
		// Top-k: the rows are the baseline, so no chunk is skipped; no
		// watched ID makes the cut, so there is nothing to test.
		{"SELECT * FROM Events ORDER BY Score DESC LIMIT 5", 0, 0, 1, table, 51},
		// No COUNT(*): sublinear lineage run, then a baseline and a
		// deletion test per watched row with Kind = 3, full scans all.
		{"SELECT MIN(Score) FROM Events WHERE Kind = 3", 7, 7, 1 + 1 + 7, lastChunk + 8*table, 7},
	} {
		pruned, exact := auditBoth(t, e, ae, tc.sql)
		if !sameReports(pruned, exact) {
			t.Errorf("%q: default report (ids=%v cand=%d) != literal (ids=%v cand=%d)",
				tc.sql, ids(pruned), pruned.Candidates, ids(exact), exact.Candidates)
		}
		if pruned.Candidates != tc.candidates || pruned.DeletionTests != tc.tests ||
			pruned.Executions != tc.executions || pruned.RowsScanned != tc.scanned {
			t.Errorf("default %q: candidates %d, deletion tests %d, executions %d, rows scanned %d; want %d, %d, %d, %d",
				tc.sql, pruned.Candidates, pruned.DeletionTests, pruned.Executions, pruned.RowsScanned,
				tc.candidates, tc.tests, tc.executions, tc.scanned)
		}
		if exact.Candidates != tc.leaf || exact.DeletionTests != tc.leaf ||
			exact.Executions != 2+tc.leaf || exact.RowsScanned != int64((2+tc.leaf)*table) {
			t.Errorf("literal %q: candidates %d, deletion tests %d, executions %d, rows scanned %d; want %d, %d, %d, %d",
				tc.sql, exact.Candidates, exact.DeletionTests, exact.Executions, exact.RowsScanned,
				tc.leaf, tc.leaf, 2+tc.leaf, (2+tc.leaf)*table)
		}
	}
}
