package offline_test

import (
	"testing"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/offline"
	"auditdb/internal/value"
)

func setup(t *testing.T) (*engine.Engine, *offline.Auditor, *core.AuditExpression) {
	t.Helper()
	e := engine.New()
	script := `
		CREATE TABLE Patients (PatientID INT PRIMARY KEY, Name VARCHAR(30), Age INT, Zip VARCHAR(10));
		CREATE TABLE Disease (PatientID INT, Disease VARCHAR(30));
		INSERT INTO Patients VALUES
			(1, 'Alice', 34, '48109'),
			(2, 'Bob', 21, '48109'),
			(3, 'Carol', 47, '98052'),
			(4, 'Dave', 29, '98052'),
			(5, 'Erin', 62, '10001');
		INSERT INTO Disease VALUES
			(1, 'cancer'), (2, 'flu'), (3, 'flu'), (4, 'diabetes'), (5, 'cancer');
		CREATE AUDIT EXPRESSION Audit_All AS
			SELECT * FROM Patients WHERE PatientID > 0
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
	`
	if _, err := e.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	ae, ok := e.Registry().Get("Audit_All")
	if !ok {
		t.Fatal("audit expression missing")
	}
	return e, offline.New(e.Catalog(), e.Store()), ae
}

func ids(rep *offline.Report) []int64 {
	out := make([]int64, len(rep.AccessedIDs))
	for i, v := range rep.AccessedIDs {
		out[i] = v.Int()
	}
	return out
}

func eq(a []int64, b ...int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOfflineSimpleFilter(t *testing.T) {
	_, aud, ae := setup(t)
	rep, err := aud.Audit("SELECT * FROM Patients WHERE Name = 'Alice'", ae)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(ids(rep), 1) {
		t.Errorf("accessed = %v, want [1]", ids(rep))
	}
}

func TestOfflineJoinMatchesOutput(t *testing.T) {
	_, aud, ae := setup(t)
	rep, err := aud.Audit(`SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`, ae)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(ids(rep), 2, 3) {
		t.Errorf("accessed = %v, want [2 3] (Bob, Carol)", ids(rep))
	}
	// A select-join shape: the candidates are the lineage — the two
	// patients with a row in the join's output — and lineage decides
	// them. The literal auditor starts from the leaf superset, all 5
	// patients entering the join.
	if rep.Candidates != 2 || rep.Decided != 2 || rep.DeletionTests != 0 {
		t.Errorf("default: candidates %d decided %d deletion tests %d, want 2 2 0", rep.Candidates, rep.Decided, rep.DeletionTests)
	}
	aud.NoSkip = true
	lit, err := aud.Audit(`SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`, ae)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(ids(lit), 2, 3) || lit.Candidates != 5 || lit.DeletionTests != 5 {
		t.Errorf("literal: accessed %v candidates %d deletion tests %d, want [2 3] 5 5", ids(lit), lit.Candidates, lit.DeletionTests)
	}
}

func TestOfflineExistsSubquery(t *testing.T) {
	// Example 2.4: Alice influences the EXISTS query even though her
	// record is not in the output rows.
	_, aud, ae := setup(t)
	rep, err := aud.Audit(`SELECT 1 FROM Patients WHERE exists
		(SELECT * FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID AND Name = 'Alice' AND Disease = 'cancer')`, ae)
	if err != nil {
		t.Fatal(err)
	}
	got := ids(rep)
	foundAlice := false
	for _, id := range got {
		if id == 1 {
			foundAlice = true
		}
	}
	if !foundAlice {
		t.Errorf("Alice must be accessed, got %v", got)
	}
}

func TestOfflineHavingClearsFalsePositive(t *testing.T) {
	// Example 3.9: Dave's diabetes group is filtered by HAVING, so
	// deleting Dave does not change the result: not accessed.
	_, aud, ae := setup(t)
	rep, err := aud.Audit(`SELECT D.Disease, COUNT(*) FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID
		GROUP BY D.Disease HAVING COUNT(*) >= 2`, ae)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids(rep) {
		if id == 4 {
			t.Errorf("Dave (4) must not be accessed: %v", ids(rep))
		}
	}
	// Alice, Bob, Carol, Erin all influence surviving groups.
	if !eq(ids(rep), 1, 2, 3, 5) {
		t.Errorf("accessed = %v, want [1 2 3 5]", ids(rep))
	}
}

func TestOfflineTopK(t *testing.T) {
	// Top-2 youngest: Bob (21) and Dave (29). Erin (62) does not
	// influence the result; Carol (47) is the next-youngest — deleting
	// Dave pulls her in, so Dave influences; deleting Carol changes
	// nothing.
	_, aud, ae := setup(t)
	rep, err := aud.Audit("SELECT Name FROM Patients ORDER BY Age LIMIT 2", ae)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(ids(rep), 2, 4) {
		t.Errorf("accessed = %v, want [2 4]", ids(rep))
	}
}

func TestOfflineAggregate(t *testing.T) {
	// Every patient influences COUNT(*) over the whole table.
	_, aud, ae := setup(t)
	rep, err := aud.Audit("SELECT COUNT(*) FROM Patients", ae)
	if err != nil {
		t.Fatal(err)
	}
	if !eq(ids(rep), 1, 2, 3, 4, 5) {
		t.Errorf("accessed = %v", ids(rep))
	}
}

func TestOfflineDistinctDuplicates(t *testing.T) {
	// §II-B limitation made concrete: with two Alices and DISTINCT
	// names, removing either Alice leaves the result unchanged, so
	// neither is "accessed" under Definition 2.3.
	e, aud, ae := setup(t)
	if _, err := e.Exec("INSERT INTO Patients VALUES (6, 'Alice', 50, '99999')"); err != nil {
		t.Fatal(err)
	}
	rep, err := aud.Audit("SELECT DISTINCT Name FROM Patients", ae)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ids(rep) {
		if id == 1 || id == 6 {
			t.Errorf("duplicated Alice rows should not be accessed under set semantics: %v", ids(rep))
		}
	}
	if !eq(ids(rep), 2, 3, 4, 5) {
		t.Errorf("accessed = %v, want [2 3 4 5]", ids(rep))
	}
}

func TestOfflineAgainstHCNNoFalseNegatives(t *testing.T) {
	// Claim 3.6 checked empirically: offline accessedIDs must be a
	// subset of hcn auditIDs for a battery of query shapes.
	e, aud, ae := setup(t)
	e.SetAuditAll(true)
	queries := []string{
		"SELECT * FROM Patients WHERE Age > 25",
		`SELECT P.Name FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID AND D.Disease = 'cancer'`,
		"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip",
		"SELECT Name FROM Patients ORDER BY Age LIMIT 2",
		"SELECT DISTINCT Zip FROM Patients",
		`SELECT Name FROM Patients WHERE PatientID IN
		 (SELECT PatientID FROM Disease WHERE Disease = 'flu')`,
		`SELECT D.Disease, COUNT(*) FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID GROUP BY D.Disease HAVING COUNT(*) >= 2`,
	}
	for _, q := range queries {
		rep, err := aud.Audit(q, ae)
		if err != nil {
			t.Fatalf("offline %q: %v", q, err)
		}
		r, err := e.Query(q)
		if err != nil {
			t.Fatalf("online %q: %v", q, err)
		}
		audited := map[int64]bool{}
		for _, v := range r.Accessed.IDs("Audit_All") {
			audited[v.Int()] = true
		}
		for _, v := range rep.AccessedIDs {
			if !audited[v.Int()] {
				t.Errorf("query %q: accessed ID %v missing from hcn auditIDs %v (false negative!)", q, v, r.Accessed.IDs("Audit_All"))
			}
		}
	}
}

func TestOfflineSJEqualsHCN(t *testing.T) {
	// Theorem 3.7 checked empirically: on select-join queries hcn
	// auditIDs equal offline accessedIDs exactly.
	e, aud, ae := setup(t)
	e.SetAuditAll(true)
	queries := []string{
		"SELECT * FROM Patients WHERE Age BETWEEN 25 AND 50",
		`SELECT * FROM Patients P, Disease D
		 WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`,
		`SELECT P.Name, D.Disease FROM Patients P JOIN Disease D ON P.PatientID = D.PatientID`,
	}
	for _, q := range queries {
		rep, err := aud.Audit(q, ae)
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		online := r.Accessed.IDs("Audit_All")
		if len(online) != len(rep.AccessedIDs) {
			t.Errorf("query %q: hcn=%v offline=%v", q, online, rep.AccessedIDs)
			continue
		}
		for i := range online {
			if value.Compare(online[i], rep.AccessedIDs[i]) != 0 {
				t.Errorf("query %q: hcn=%v offline=%v", q, online, rep.AccessedIDs)
				break
			}
		}
	}
}

func TestOfflineCandidatePruning(t *testing.T) {
	// A query whose leaf predicate excludes most sensitive tuples must
	// only settle the survivors.
	_, aud, ae := setup(t)
	const sql = "SELECT * FROM Patients WHERE Zip = '48109'"
	rep, err := aud.Audit(sql, ae)
	if err != nil {
		t.Fatal(err)
	}
	// Select-join: one lineage run, both survivors decided by it.
	if rep.Candidates != 2 || rep.Decided != 2 || rep.DeletionTests != 0 || rep.Executions != 1 {
		t.Errorf("default: candidates %d decided %d deletion tests %d executions %d, want 2 2 0 1",
			rep.Candidates, rep.Decided, rep.DeletionTests, rep.Executions)
	}
	if rep.DeferReasons != nil || rep.Path() != "lineage" {
		t.Errorf("default: deferred %v path %s, want none, lineage", rep.DeferReasons, rep.Path())
	}
	aud.NoSkip = true
	lit, err := aud.Audit(sql, ae)
	if err != nil {
		t.Fatal(err)
	}
	// 1 baseline + 1 leaf pass + 2 deletion tests.
	if lit.Candidates != 2 || lit.Decided != 0 || lit.DeletionTests != 2 || lit.Executions != 4 {
		t.Errorf("literal: candidates %d decided %d deletion tests %d executions %d, want 2 0 2 4",
			lit.Candidates, lit.Decided, lit.DeletionTests, lit.Executions)
	}
	if lit.DeferReasons[offline.ReasonNoSkip] != 2 || lit.Path() != "deletion" {
		t.Errorf("literal: deferred %v path %s, want noskip:2, deletion", lit.DeferReasons, lit.Path())
	}
	if !eq(ids(rep), 1, 2) || !eq(ids(lit), 1, 2) {
		t.Errorf("accessed: default %v literal %v, want [1 2]", ids(rep), ids(lit))
	}
}

// TestOfflineRowsScanned checks the report's I/O accounting. Every
// execution of a single-table query reads all 5 patient rows (the
// visibility mask hides the tuple after the storage read), so
// RowsScanned is 5 per execution, and Executions is: the instrumented
// run; a baseline when a deletion test needs one and the instrumented
// run's rows are not the result; one per deletion test. The literal
// auditor always runs baseline, leaf pass and every candidate's test.
func TestOfflineRowsScanned(t *testing.T) {
	_, aud, ae := setup(t)
	for _, tc := range []struct {
		sql        string
		executions int // default auditor
		candidates int // literal auditor (leaf superset)
	}{
		// Select-join: the lineage run alone.
		{"SELECT * FROM Patients WHERE Age > 30", 1, 3},
		// COUNT(*) aggregate: the lineage run alone.
		{"SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip", 1, 5},
		// Top-k: the root lineage run is also the baseline; Bob and
		// Dave are in the top 2 and get a deletion test each.
		{"SELECT Name FROM Patients ORDER BY Age LIMIT 2", 1 + 2, 5},
		// No COUNT(*): lineage run, baseline, five deletion tests.
		{"SELECT Zip, MAX(Age) FROM Patients GROUP BY Zip", 1 + 1 + 5, 5},
		// DISTINCT decides nothing: leaf pass, baseline, five tests.
		{"SELECT DISTINCT Zip FROM Patients", 1 + 1 + 5, 5},
	} {
		aud.NoSkip = false
		rep, err := aud.Audit(tc.sql, ae)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Executions != tc.executions || rep.RowsScanned != int64(5*tc.executions) {
			t.Errorf("default %q: %d executions, %d rows scanned, want %d, %d",
				tc.sql, rep.Executions, rep.RowsScanned, tc.executions, 5*tc.executions)
		}
		aud.NoSkip = true
		lit, err := aud.Audit(tc.sql, ae)
		if err != nil {
			t.Fatal(err)
		}
		if lit.Candidates != tc.candidates || lit.Executions != 2+tc.candidates || lit.RowsScanned != int64(5*(2+tc.candidates)) {
			t.Errorf("literal %q: %d candidates, %d executions, %d rows scanned, want %d, %d, %d",
				tc.sql, lit.Candidates, lit.Executions, lit.RowsScanned, tc.candidates, 2+tc.candidates, 5*(2+tc.candidates))
		}
		if !sameIDs(rep.AccessedIDs, lit.AccessedIDs) {
			t.Errorf("%q: default %v, literal %v", tc.sql, ids(rep), ids(lit))
		}
	}
}

// TestClassifierOutcomes pins every rule of the decision table to
// hand-checked cases covering its outcomes — accessed, not accessed
// and undecided — with the path each verdict took. Patients: Alice 34
// and Bob 21 in 48109, Carol 47 and Dave 29 in 98052, Erin 62 in
// 10001; Zed is added as a second 29-year-old.
func TestClassifierOutcomes(t *testing.T) {
	e, aud, ae := setup(t)
	if _, err := e.ExecScript(`
		INSERT INTO Patients VALUES (6, 'Zed', 29, '98052');
		CREATE AUDIT EXPRESSION Audit_Disease AS
			SELECT * FROM Disease WHERE PatientID > 0
			FOR SENSITIVE TABLE Disease, PARTITION BY PatientID;
	`); err != nil {
		t.Fatal(err)
	}
	byDisease, _ := e.Registry().Get("Audit_Disease")
	type reasons = map[string]int
	for _, tc := range []struct {
		name       string
		expr       *core.AuditExpression
		sql        string
		accessed   []int64
		candidates int
		decided    int
		executions int
		deferred   reasons
	}{
		// Select-join: in the lineage (1, 3, 5) accessed, the rest not,
		// nothing undecided.
		{"select-join", ae, "SELECT Name FROM Patients WHERE Age > 30 ORDER BY Name",
			[]int64{1, 3, 5}, 3, 3, 1, nil},
		{"select-join over a join", ae, "SELECT D.Disease FROM Patients P, Disease D WHERE P.PatientID = D.PatientID AND P.Zip = '48109'",
			[]int64{1, 2}, 2, 2, 1, nil},
		// The same block under an outer join: undecided, and rightly —
		// the NULL-extended row projects to the same value.
		{"outer join", ae, "SELECT D.Disease FROM Disease D LEFT JOIN Patients P ON D.PatientID = P.PatientID",
			nil, 6, 0, 1 + 1 + 6, reasons{offline.ReasonOuterJoin: 6}},
		// Partition key that is not the table's key: undecided.
		{"non-key partition", byDisease, "SELECT * FROM Disease WHERE Disease = 'flu'",
			[]int64{2, 3}, 2, 0, 1 + 1 + 2, reasons{offline.ReasonNonKey: 2}},

		// Aggregate with COUNT(*): lineage decides both ways.
		{"count(*)", ae, "SELECT Zip, COUNT(*), MAX(Age) FROM Patients WHERE Age < 40 GROUP BY Zip",
			[]int64{1, 2, 4, 6}, 4, 4, 1, nil},
		// Without it: undecided. Bob, Dave and Zed are under their
		// groups' maxima and turn out not accessed.
		{"no count(*)", ae, "SELECT Zip, MAX(Age) FROM Patients GROUP BY Zip",
			[]int64{1, 3, 5}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonAggNoCount: 6}},
		// The filter cuts the lineage before the deletion tests.
		{"no count(*), filtered", ae, "SELECT MAX(Age) FROM Patients WHERE Zip = '98052'",
			[]int64{3}, 3, 0, 1 + 1 + 3, reasons{offline.ReasonAggNoCount: 3}},
		// COUNT(*) computed for the ORDER BY but not returned.
		{"count(*) not returned", ae, "SELECT Zip, MAX(Age) FROM Patients GROUP BY Zip ORDER BY COUNT(*)",
			[]int64{1, 3, 5}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonAggNoCount: 6}},
		{"having", ae, "SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip HAVING COUNT(*) >= 3",
			[]int64{3, 4, 6}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonHaving: 6}},
		{"distinct aggregate", ae, "SELECT COUNT(DISTINCT Zip), COUNT(*) FROM Patients",
			[]int64{1, 2, 3, 4, 5, 6}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonDistinct: 6}},

		// Top-k: absent from the first k rows (1, 3, 5, 6) not accessed
		// without a test; members undecided. Bob is accessed; Dave is
		// not — Zed's 29 slides into his slot.
		{"top-k", ae, "SELECT Age FROM Patients ORDER BY Age LIMIT 2",
			[]int64{2}, 2, 0, 1 + 2, reasons{offline.ReasonTopKMember: 2}},
		// Returning the name tells Dave and Zed apart.
		{"top-k, distinguishable", ae, "SELECT Name FROM Patients ORDER BY Age LIMIT 2",
			[]int64{2, 4}, 2, 0, 1 + 2, reasons{offline.ReasonTopKMember: 2}},
		{"top-k over a join", ae, "SELECT D.Disease FROM Patients P, Disease D WHERE P.PatientID = D.PatientID ORDER BY P.Age DESC LIMIT 1",
			[]int64{5}, 1, 0, 1 + 1, reasons{offline.ReasonTopKMember: 1}},
		{"limit 0", ae, "SELECT Name FROM Patients LIMIT 0", nil, 0, 0, 1, nil},

		// Everything else: the leaf superset, every candidate tested.
		{"distinct", ae, "SELECT DISTINCT Age FROM Patients",
			[]int64{1, 2, 3, 5}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonDistinct: 6}},
		{"subquery", ae, "SELECT Name FROM Patients P WHERE EXISTS (SELECT 1 FROM Disease D WHERE D.PatientID = P.PatientID AND D.Disease = 'flu')",
			[]int64{2, 3}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonSubquery: 6}},
		{"self-join", ae, "SELECT A.Name FROM Patients A, Patients B WHERE A.Zip = B.Zip AND A.Age < B.Age AND B.Age > 40",
			[]int64{3, 4, 6}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonSelfJoin: 6}},
		{"limit over group by", ae, "SELECT Zip, COUNT(*) FROM Patients GROUP BY Zip ORDER BY 2 DESC LIMIT 1",
			[]int64{3, 4, 6}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonShape: 6}},
		// Bob, Dave and Zed make the inner cut; only Dave survives the
		// outer one, but without any of the three Alice gets in and wins.
		{"limit over limit", ae, "SELECT X.Name FROM (SELECT Name, Age FROM Patients ORDER BY Age LIMIT 3) X ORDER BY X.Age DESC LIMIT 1",
			[]int64{2, 4, 6}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonShape: 6}},
		{"filter over a key-dropping projection", ae, "SELECT X.Name FROM (SELECT Name, Age FROM Patients) X WHERE X.Age > 40",
			[]int64{3, 5}, 6, 0, 1 + 1 + 6, reasons{offline.ReasonShape: 6}},
		{"not the sensitive table", ae, "SELECT * FROM Disease", nil, 0, 0, 0, nil},
	} {
		aud.NoSkip = false
		rep, err := aud.Audit(tc.sql, tc.expr)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !eq(ids(rep), tc.accessed...) {
			t.Errorf("%s: accessed %v, want %v", tc.name, ids(rep), tc.accessed)
		}
		deferred := 0
		for _, n := range tc.deferred {
			deferred += n
		}
		if rep.Candidates != tc.candidates || rep.Decided != tc.decided || rep.DeletionTests != deferred || rep.Executions != tc.executions {
			t.Errorf("%s: candidates %d, decided %d, deletion tests %d, executions %d; want %d, %d, %d, %d",
				tc.name, rep.Candidates, rep.Decided, rep.DeletionTests, rep.Executions,
				tc.candidates, tc.decided, deferred, tc.executions)
		}
		if len(rep.DeferReasons) != len(tc.deferred) {
			t.Errorf("%s: deferred %v, want %v", tc.name, rep.DeferReasons, tc.deferred)
		}
		for reason, n := range tc.deferred {
			if rep.DeferReasons[reason] != n {
				t.Errorf("%s: deferred %v, want %v", tc.name, rep.DeferReasons, tc.deferred)
			}
		}
		aud.NoSkip = true
		lit, err := aud.Audit(tc.sql, tc.expr)
		if err != nil {
			t.Fatalf("%s (literal): %v", tc.name, err)
		}
		if !eq(ids(lit), tc.accessed...) {
			t.Errorf("%s: literal auditor says %v, want %v", tc.name, ids(lit), tc.accessed)
		}
	}
}
