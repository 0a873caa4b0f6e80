package engine

import (
	"strings"
	"testing"

	"auditdb/internal/value"
)

func TestExecScriptReturnsLastResult(t *testing.T) {
	e := New()
	r, err := e.ExecScript(`
		CREATE TABLE T (x INT);
		INSERT INTO T VALUES (1), (2);
		SELECT COUNT(*) FROM T;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 2 {
		t.Errorf("last result = %+v", r)
	}
}

func TestExecRejectsMultipleStatements(t *testing.T) {
	e := New()
	if _, err := e.Exec("SELECT 1; SELECT 2"); err == nil {
		t.Error("Exec should reject scripts")
	}
}

func TestParseErrorsSurface(t *testing.T) {
	e := New()
	for _, sql := range []string{
		"", "SELEC 1", "CREATE TABLE", "INSERT INTO",
	} {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestDDLErrors(t *testing.T) {
	e := newHealthDB(t)
	cases := []string{
		"CREATE TABLE Patients (x INT)",                        // duplicate
		"CREATE INDEX i ON Missing (x)",                        // missing table
		"CREATE INDEX i ON Patients (nope)",                    // missing column
		"DROP TABLE Missing",                                   // missing table
		"DROP TRIGGER missing_trigger",                         // missing trigger
		"DROP AUDIT EXPRESSION missing_expr",                   // missing expr
		"CREATE TABLE Bad (x INT, PRIMARY KEY (nope))",         // bad pk
		"CREATE TRIGGER t ON Missing AFTER INSERT AS SELECT 1", // missing table
		"CREATE TRIGGER t ON ACCESS TO Missing AS SELECT 1",    // missing expr
	}
	for _, sql := range cases {
		if _, err := e.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
}

func TestDuplicateIndexRejected(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, "CREATE INDEX i1 ON Patients (Zip)")
	if _, err := e.Exec("CREATE INDEX i1 ON Patients (Zip)"); err == nil {
		t.Error("duplicate index should fail")
	}
}

func TestLoadRowsValidates(t *testing.T) {
	e := New()
	mustExec(t, e, "CREATE TABLE T (x INT PRIMARY KEY)")
	rows := []value.Row{{value.NewInt(1)}, {value.NewInt(1)}}
	if err := e.LoadRows("T", rows); err == nil {
		t.Error("duplicate pk in bulk load should fail")
	}
	// Failure must roll the whole batch back.
	r := mustQuery(t, e, "SELECT COUNT(*) FROM T")
	if r.Rows[0][0].Int() != 0 {
		t.Errorf("partial bulk load leaked rows: %v", r.Rows[0])
	}
	if err := e.LoadRows("Missing", rows); err == nil {
		t.Error("bulk load into missing table should fail")
	}
}

func TestUpdateWithCorrelatedSubqueryPredicate(t *testing.T) {
	e := newHealthDB(t)
	// Raise ages only for patients that have a disease on file.
	r := mustExec(t, e, `UPDATE Patients SET Age = Age + 100
		WHERE EXISTS (SELECT 1 FROM Disease D WHERE D.PatientID = Patients.PatientID)`)
	if r.RowsAffected != 5 {
		t.Fatalf("affected = %d", r.RowsAffected)
	}
	q := mustQuery(t, e, "SELECT COUNT(*) FROM Patients WHERE Age > 100")
	if q.Rows[0][0].Int() != 5 {
		t.Errorf("updated = %v", q.Rows[0])
	}
}

func TestDeleteWithInSubquery(t *testing.T) {
	e := newHealthDB(t)
	r := mustExec(t, e, `DELETE FROM Patients
		WHERE PatientID IN (SELECT PatientID FROM Disease WHERE Disease = 'flu')`)
	if r.RowsAffected != 2 {
		t.Fatalf("affected = %d", r.RowsAffected)
	}
}

func TestInsertSelectWithColumnList(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, "CREATE TABLE Names (N VARCHAR(30), Extra INT)")
	mustExec(t, e, "INSERT INTO Names (N) SELECT Name FROM Patients WHERE Age >= 60")
	r := mustQuery(t, e, "SELECT N, Extra FROM Names")
	if len(r.Rows) != 1 || r.Rows[0][0].Str() != "Erin" || !r.Rows[0][1].IsNull() {
		t.Errorf("rows = %v", r.Rows)
	}
}

func TestInsertArityMismatch(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.Exec("INSERT INTO Patients (PatientID, Name) VALUES (1, 'x', 3)"); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := e.Exec("INSERT INTO Patients (PatientID, PatientID) VALUES (1, 2)"); err == nil {
		t.Error("duplicate column in list should fail")
	}
	if _, err := e.Exec("INSERT INTO Patients (Nope) VALUES (1)"); err == nil {
		t.Error("unknown column should fail")
	}
}

func TestUpdateUnknownColumn(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.Exec("UPDATE Patients SET Nope = 1"); err == nil {
		t.Error("unknown SET column should fail")
	}
}

func TestAliasedUpdateDelete(t *testing.T) {
	e := newHealthDB(t)
	r := mustExec(t, e, "UPDATE Patients P SET Age = P.Age + 1 WHERE P.Name = 'Bob'")
	if r.RowsAffected != 1 {
		t.Errorf("aliased update affected = %d", r.RowsAffected)
	}
	r = mustExec(t, e, "DELETE FROM Patients P WHERE P.Name = 'Bob'")
	if r.RowsAffected != 1 {
		t.Errorf("aliased delete affected = %d", r.RowsAffected)
	}
}

func TestHeuristicAccessors(t *testing.T) {
	e := New()
	if e.Heuristic().String() != "hcn" {
		t.Errorf("default heuristic = %v", e.Heuristic())
	}
}

func TestExplainParseError(t *testing.T) {
	e := New()
	if _, err := e.Explain("SELECT FROM", true); err == nil {
		t.Error("bad query should fail")
	}
	if _, err := e.Exec("EXPLAIN SELECT * FROM missing"); err == nil {
		t.Error("EXPLAIN of unknown table should fail")
	}
}

func TestConcatOperator(t *testing.T) {
	e := newHealthDB(t)
	r := mustQuery(t, e, "SELECT Name || '@' || Zip FROM Patients WHERE PatientID = 1")
	if r.Rows[0][0].Str() != "Alice@48109" {
		t.Errorf("concat = %v", r.Rows[0])
	}
}

func TestOrderByPosition(t *testing.T) {
	e := newHealthDB(t)
	r := mustQuery(t, e, "SELECT Name, Age FROM Patients ORDER BY 2 DESC LIMIT 1")
	if r.Rows[0][0].Str() != "Erin" {
		t.Errorf("order by position = %v", r.Rows)
	}
}

func TestQueryRejectsNonSelect(t *testing.T) {
	e := New()
	if _, err := e.Query("CREATE TABLE T (x INT)"); err == nil {
		t.Error("Query should reject DDL")
	}
}

func TestTriggerOnAccessedKeywordTable(t *testing.T) {
	// A user table named "accessed" must not be shadowed by the
	// trigger pseudo-relation outside trigger bodies, nor as the target
	// of a trigger body's UPDATE or DELETE.
	e := New()
	mustExec(t, e, "CREATE TABLE accessed (x INT)")
	mustExec(t, e, "INSERT INTO accessed VALUES (7)")
	r := mustQuery(t, e, "SELECT x FROM accessed")
	if len(r.Rows) != 1 || r.Rows[0][0].Int() != 7 {
		t.Errorf("rows = %v", r.Rows)
	}
	mustExec(t, e, "CREATE TABLE Pt (ID INT PRIMARY KEY)")
	mustExec(t, e, "INSERT INTO Pt VALUES (1)")
	mustExec(t, e, "CREATE AUDIT EXPRESSION A AS SELECT * FROM Pt FOR SENSITIVE TABLE Pt, PARTITION BY ID")
	mustExec(t, e, "CREATE TRIGGER bump ON ACCESS TO A AS UPDATE accessed SET x = x + 1 WHERE x > 0")
	mustQuery(t, e, "SELECT * FROM Pt")
	if r := mustQuery(t, e, "SELECT x FROM accessed"); len(r.Rows) != 1 || r.Rows[0][0].Int() != 8 {
		t.Errorf("after the trigger's UPDATE rows = %v", r.Rows)
	}
}

func TestStringFunctionsInQueries(t *testing.T) {
	e := newHealthDB(t)
	r := mustQuery(t, e, `SELECT UPPER(Name), LOWER(Zip), LENGTH(Name), SUBSTRING(Name, 1, 2)
		FROM Patients WHERE PatientID = 1`)
	row := r.Rows[0]
	if row[0].Str() != "ALICE" || row[2].Int() != 5 || row[3].Str() != "Al" {
		t.Errorf("row = %v", row)
	}
	if !strings.EqualFold(row[1].Str(), "48109") {
		t.Errorf("lower zip = %v", row[1])
	}
}

func TestViews(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, `CREATE VIEW Adults AS SELECT PatientID, Name FROM Patients WHERE Age >= 30`)
	r := mustQuery(t, e, "SELECT Name FROM Adults ORDER BY Name")
	if len(r.Rows) != 3 || r.Rows[0][0].Str() != "Alice" {
		t.Fatalf("view rows = %v", r.Rows)
	}
	// Views compose with joins and aliases.
	r = mustQuery(t, e, `SELECT A.Name, D.Disease FROM Adults A, Disease D
		WHERE A.PatientID = D.PatientID ORDER BY A.Name`)
	if len(r.Rows) != 3 {
		t.Errorf("joined view rows = %v", r.Rows)
	}
	// Views see fresh data.
	mustExec(t, e, "INSERT INTO Patients VALUES (10, 'Zoe', 44, 'x')")
	r = mustQuery(t, e, "SELECT COUNT(*) FROM Adults")
	if r.Rows[0][0].Int() != 4 {
		t.Errorf("view not live: %v", r.Rows[0])
	}
	// Errors.
	if _, err := e.Exec("CREATE VIEW Adults AS SELECT 1"); err == nil {
		t.Error("duplicate view should fail")
	}
	if _, err := e.Exec("CREATE VIEW Patients AS SELECT 1"); err == nil {
		t.Error("view/table collision should fail")
	}
	if _, err := e.Exec("CREATE VIEW Bad AS SELECT nope FROM Patients"); err == nil {
		t.Error("invalid defining query should fail")
	}
	if _, err := e.Exec("CREATE TABLE Adults (x INT)"); err == nil {
		t.Error("table/view collision should fail")
	}
	mustExec(t, e, "DROP VIEW Adults")
	if _, err := e.Query("SELECT * FROM Adults"); err == nil {
		t.Error("dropped view should be gone")
	}
}

func TestViewQueriesAreAudited(t *testing.T) {
	e := newHealthDB(t)
	if _, err := e.ExecScript(`
		CREATE AUDIT EXPRESSION Audit_Alice AS
			SELECT * FROM Patients WHERE Name = 'Alice'
			FOR SENSITIVE TABLE Patients, PARTITION BY PatientID;
		CREATE VIEW Zips AS SELECT PatientID, Zip FROM Patients;
	`); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	// Reading Alice's row through the view must be detected: the view
	// expands to a plan whose sensitive-table scan carries the probe.
	r := mustQuery(t, e, "SELECT Zip FROM Zips WHERE PatientID = 1")
	if r.Accessed.Len("Audit_Alice") != 1 {
		t.Errorf("access through view not audited: %d", r.Accessed.Len("Audit_Alice"))
	}
	r = mustQuery(t, e, "SELECT Zip FROM Zips WHERE PatientID = 2")
	if r.Accessed.Len("Audit_Alice") != 0 {
		t.Errorf("false positive through view: %d", r.Accessed.Len("Audit_Alice"))
	}
}

func TestDropIndexStatement(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, "CREATE INDEX idx_zip ON Patients (Zip)")
	mustExec(t, e, "DROP INDEX idx_zip")
	if _, err := e.Exec("DROP INDEX idx_zip"); err == nil {
		t.Error("double drop should fail")
	}
	// Queries still work post-drop (plain scan path).
	r := mustQuery(t, e, "SELECT COUNT(*) FROM Patients WHERE Zip = '48109'")
	if r.Rows[0][0].Int() != 2 {
		t.Errorf("count = %v", r.Rows[0])
	}
}

func TestViewSurvivesDumpRestore(t *testing.T) {
	e := newHealthDB(t)
	mustExec(t, e, "CREATE VIEW Adults AS SELECT Name FROM Patients WHERE Age >= 30")
	var sb strings.Builder
	if err := e.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	e2 := New()
	if _, err := e2.ExecScript(sb.String()); err != nil {
		t.Fatalf("restore: %v\n%s", err, sb.String())
	}
	r := mustQuery(t, e2, "SELECT COUNT(*) FROM Adults")
	if r.Rows[0][0].Int() != 3 {
		t.Errorf("restored view rows = %v", r.Rows[0])
	}
}

func TestAuditExpressionOverViewRejected(t *testing.T) {
	// Audit expressions must read real tables: a view-based definition
	// would break incremental maintenance, so the compile fails fast
	// (the view name is not resolvable in the definition's plan).
	e := newHealthDB(t)
	mustExec(t, e, "CREATE VIEW Adults AS SELECT PatientID FROM Patients WHERE Age >= 30")
	if _, err := e.Exec(`CREATE AUDIT EXPRESSION bad AS
		SELECT * FROM Adults
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`); err == nil {
		t.Error("audit expression over a view should be rejected")
	}
	// And the failed DDL must not leave catalog residue.
	if _, ok := e.Catalog().AuditExpr("bad"); ok {
		t.Error("failed audit DDL leaked into the catalog")
	}
}
