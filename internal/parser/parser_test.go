package parser

import (
	"testing"

	"auditdb/internal/ast"
	"auditdb/internal/value"
)

func mustQuery(t *testing.T, sql string) *ast.Select {
	t.Helper()
	q, err := ParseQuery(sql)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", sql, err)
	}
	return q
}

func TestParseSimpleSelect(t *testing.T) {
	q := mustQuery(t, "SELECT name, age FROM patients WHERE age > 30")
	if len(q.Items) != 2 || q.Items[0].Expr.(*ast.ColumnRef).Name != "name" {
		t.Errorf("items = %+v", q.Items)
	}
	bt := q.From[0].(*ast.BaseTable)
	if bt.Name != "patients" {
		t.Errorf("from = %+v", bt)
	}
	bin := q.Where.(*ast.Binary)
	if bin.Op != ast.OpGt {
		t.Errorf("where op = %v", bin.Op)
	}
}

func TestParseStar(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM t")
	if !q.Items[0].Star {
		t.Error("expected star item")
	}
	q = mustQuery(t, "SELECT p.* FROM patients p")
	if !q.Items[0].Star || q.Items[0].StarTable != "p" {
		t.Errorf("qualified star = %+v", q.Items[0])
	}
}

func TestParseAliases(t *testing.T) {
	q := mustQuery(t, "SELECT c_name AS cname, c_age age FROM customer AS c")
	if q.Items[0].Alias != "cname" || q.Items[1].Alias != "age" {
		t.Errorf("aliases = %+v", q.Items)
	}
	if q.From[0].(*ast.BaseTable).Alias != "c" {
		t.Errorf("table alias = %+v", q.From[0])
	}
}

func TestParseJoins(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y`)
	j := q.From[0].(*ast.JoinRef)
	if j.Kind != ast.JoinLeft {
		t.Errorf("outer join kind = %v", j.Kind)
	}
	inner := j.Left.(*ast.JoinRef)
	if inner.Kind != ast.JoinInner || inner.On == nil {
		t.Errorf("inner join = %+v", inner)
	}
}

func TestParseCommaJoin(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM orders, customer WHERE c_custkey = o_custkey")
	if len(q.From) != 2 {
		t.Errorf("from list length = %d", len(q.From))
	}
}

func TestParseCrossJoin(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM a CROSS JOIN b")
	j := q.From[0].(*ast.JoinRef)
	if j.Kind != ast.JoinCross || j.On != nil {
		t.Errorf("cross join = %+v", j)
	}
}

func TestParseGroupByHavingOrderLimit(t *testing.T) {
	q := mustQuery(t, `SELECT age, COUNT(*) AS n FROM patients
		GROUP BY age HAVING COUNT(*) >= 2
		ORDER BY n DESC, age ASC LIMIT 10`)
	if len(q.GroupBy) != 1 || q.Having == nil {
		t.Errorf("group/having = %+v %+v", q.GroupBy, q.Having)
	}
	if len(q.OrderBy) != 2 || !q.OrderBy[0].Desc || q.OrderBy[1].Desc {
		t.Errorf("order = %+v", q.OrderBy)
	}
	if q.Limit != 10 {
		t.Errorf("limit = %d", q.Limit)
	}
}

func TestParseDistinct(t *testing.T) {
	q := mustQuery(t, "SELECT DISTINCT name FROM patients")
	if !q.Distinct {
		t.Error("distinct flag lost")
	}
}

func TestParseSubqueries(t *testing.T) {
	q := mustQuery(t, `SELECT 1 FROM patients WHERE exists
		(SELECT * FROM disease d WHERE d.pid = patients.id)`)
	ex, ok := q.Where.(*ast.Exists)
	if !ok || ex.Sub == nil {
		t.Fatalf("where = %T", q.Where)
	}

	q = mustQuery(t, `SELECT * FROM p WHERE name IN (SELECT name FROM p2)`)
	in, ok := q.Where.(*ast.InSubquery)
	if !ok || in.Negate {
		t.Fatalf("where = %T", q.Where)
	}

	q = mustQuery(t, `SELECT * FROM p WHERE age > (SELECT AVG(age) FROM p)`)
	bin := q.Where.(*ast.Binary)
	if _, ok := bin.R.(*ast.ScalarSubquery); !ok {
		t.Fatalf("scalar subquery = %T", bin.R)
	}
}

func TestParseDerivedTable(t *testing.T) {
	q := mustQuery(t, `SELECT c_count, COUNT(*) FROM
		(SELECT c_custkey, COUNT(o_orderkey) c_count FROM customer, orders GROUP BY c_custkey) AS co
		GROUP BY c_count`)
	sub, ok := q.From[0].(*ast.SubqueryRef)
	if !ok || sub.Alias != "co" {
		t.Fatalf("derived table = %+v", q.From[0])
	}
	if _, err := ParseQuery("SELECT * FROM (SELECT 1)"); err == nil {
		t.Error("derived table without alias should fail")
	}
}

func TestParseInListAndBetweenAndLike(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM t WHERE a IN (1, 2, 3) AND b NOT IN (4)
		AND c BETWEEN 1 AND 10 AND d NOT BETWEEN 2 AND 3
		AND e LIKE '%x%' AND f NOT LIKE 'y%'`)
	// Walk the conjunction tree and count node types.
	var inCount, betweenCount, likeCount int
	ast.WalkExprs(q.Where, func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.InList:
			inCount++
		case *ast.Between:
			betweenCount++
		case *ast.Binary:
			if x.Op == ast.OpLike {
				likeCount++
			}
		}
	})
	if inCount != 2 || betweenCount != 2 || likeCount != 2 {
		t.Errorf("in=%d between=%d like=%d", inCount, betweenCount, likeCount)
	}
}

func TestParseIsNull(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM t WHERE a IS NULL AND b IS NOT NULL")
	bin := q.Where.(*ast.Binary)
	l := bin.L.(*ast.IsNull)
	r := bin.R.(*ast.IsNull)
	if l.Negate || !r.Negate {
		t.Errorf("isnull = %+v %+v", l, r)
	}
}

func TestParsePrecedence(t *testing.T) {
	q := mustQuery(t, "SELECT 1 + 2 * 3 FROM t")
	add := q.Items[0].Expr.(*ast.Binary)
	if add.Op != ast.OpAdd {
		t.Fatalf("top op = %v", add.Op)
	}
	mul := add.R.(*ast.Binary)
	if mul.Op != ast.OpMul {
		t.Errorf("right op = %v", mul.Op)
	}

	q = mustQuery(t, "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3")
	or := q.Where.(*ast.Binary)
	if or.Op != ast.OpOr {
		t.Fatalf("top should be OR, got %v", or.Op)
	}
	and := or.R.(*ast.Binary)
	if and.Op != ast.OpAnd {
		t.Errorf("right of OR should be AND, got %v", and.Op)
	}
}

func TestParseNotPrecedence(t *testing.T) {
	q := mustQuery(t, "SELECT * FROM t WHERE NOT a = 1 AND b = 2")
	and := q.Where.(*ast.Binary)
	if and.Op != ast.OpAnd {
		t.Fatalf("top should be AND, got %v", and.Op)
	}
	if _, ok := and.L.(*ast.Unary); !ok {
		t.Errorf("left should be NOT, got %T", and.L)
	}
}

func TestParseCase(t *testing.T) {
	q := mustQuery(t, `SELECT SUM(CASE WHEN nation = 'BRAZIL' THEN volume ELSE 0 END) FROM t`)
	fc := q.Items[0].Expr.(*ast.FuncCall)
	c := fc.Args[0].(*ast.Case)
	if len(c.Whens) != 1 || c.Else == nil || c.Operand != nil {
		t.Errorf("case = %+v", c)
	}
	q = mustQuery(t, `SELECT CASE x WHEN 1 THEN 'a' WHEN 2 THEN 'b' END FROM t`)
	c = q.Items[0].Expr.(*ast.Case)
	if c.Operand == nil || len(c.Whens) != 2 || c.Else != nil {
		t.Errorf("simple case = %+v", c)
	}
	if _, err := ParseQuery("SELECT CASE END FROM t"); err == nil {
		t.Error("CASE without WHEN should fail")
	}
}

func TestParseFunctions(t *testing.T) {
	q := mustQuery(t, `SELECT COUNT(*), COUNT(DISTINCT x), SUM(a + b), YEAR(d) FROM t`)
	if fc := q.Items[0].Expr.(*ast.FuncCall); !fc.Star || fc.Name != "COUNT" {
		t.Errorf("count(*) = %+v", fc)
	}
	if fc := q.Items[1].Expr.(*ast.FuncCall); !fc.Distinct {
		t.Errorf("count distinct = %+v", fc)
	}
	if fc := q.Items[3].Expr.(*ast.FuncCall); fc.Name != "YEAR" {
		t.Errorf("year = %+v", fc)
	}
}

func TestParseDateLiteral(t *testing.T) {
	q := mustQuery(t, `SELECT * FROM orders WHERE o_orderdate >= DATE '1995-01-01'`)
	bin := q.Where.(*ast.Binary)
	lit := bin.R.(*ast.Literal)
	if lit.Val.Kind != value.KindDate || lit.Val.String() != "1995-01-01" {
		t.Errorf("date literal = %v", lit.Val)
	}
	if _, err := ParseQuery("SELECT DATE 123"); err == nil {
		t.Error("DATE must be followed by a string")
	}
}

func TestParseInsert(t *testing.T) {
	s, err := Parse(`INSERT INTO patients (id, name) VALUES (1, 'Alice'), (2, 'Bob')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*ast.Insert)
	if ins.Table != "patients" || len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Errorf("insert = %+v", ins)
	}

	s, err = Parse(`INSERT INTO log SELECT now(), pid FROM accessed`)
	if err != nil {
		t.Fatal(err)
	}
	ins = s.(*ast.Insert)
	if ins.Query == nil {
		t.Error("insert-select missing query")
	}
}

func TestParseUpdateDelete(t *testing.T) {
	s, err := Parse(`UPDATE patients SET age = age + 1, zip = '99999' WHERE id = 3`)
	if err != nil {
		t.Fatal(err)
	}
	up := s.(*ast.Update)
	if len(up.Set) != 2 || up.Where == nil {
		t.Errorf("update = %+v", up)
	}

	s, err = Parse(`DELETE FROM patients WHERE age < 0`)
	if err != nil {
		t.Fatal(err)
	}
	del := s.(*ast.Delete)
	if del.Table != "patients" || del.Where == nil {
		t.Errorf("delete = %+v", del)
	}
}

func TestParseCreateTable(t *testing.T) {
	s, err := Parse(`CREATE TABLE patients (
		PatientID INT PRIMARY KEY,
		Name VARCHAR(25) NOT NULL,
		Birth DATE,
		Balance DECIMAL(15,2)
	)`)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(*ast.CreateTable)
	if len(ct.Columns) != 4 || !ct.Columns[0].PrimaryKey {
		t.Errorf("create table = %+v", ct)
	}
	if ct.Columns[2].Type != value.KindDate || ct.Columns[3].Type != value.KindFloat {
		t.Errorf("types = %+v", ct.Columns)
	}
}

func TestParseCreateTableCompositePK(t *testing.T) {
	s, err := Parse(`CREATE TABLE ps (pkey INT, skey INT, qty INT, PRIMARY KEY (pkey, skey))`)
	if err != nil {
		t.Fatal(err)
	}
	ct := s.(*ast.CreateTable)
	if len(ct.PrimaryKey) != 2 || ct.PrimaryKey[1] != "skey" {
		t.Errorf("pk = %+v", ct.PrimaryKey)
	}
}

func TestParseCreateIndex(t *testing.T) {
	s, err := Parse(`CREATE INDEX idx_name ON patients (name, age)`)
	if err != nil {
		t.Fatal(err)
	}
	ci := s.(*ast.CreateIndex)
	if ci.Table != "patients" || len(ci.Columns) != 2 {
		t.Errorf("create index = %+v", ci)
	}
}

func TestParseCreateAuditExpression(t *testing.T) {
	s, err := Parse(`CREATE AUDIT EXPRESSION Audit_Alice AS
		SELECT * FROM Patients WHERE Name = 'Alice'
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID`)
	if err != nil {
		t.Fatal(err)
	}
	ae := s.(*ast.CreateAuditExpression)
	if ae.Name != "Audit_Alice" || ae.SensitiveTable != "Patients" || ae.PartitionBy != "PatientID" {
		t.Errorf("audit expr = %+v", ae)
	}
	if ae.Query == nil || ae.Query.Where == nil {
		t.Error("audit expr query missing")
	}
}

func TestParseCreateAuditExpressionWithJoin(t *testing.T) {
	s, err := Parse(`CREATE AUDIT EXPRESSION Audit_Cancer AS
		SELECT P.* FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND Disease = 'cancer'
		FOR SENSITIVE TABLE Patients PARTITION BY PatientID`)
	if err != nil {
		t.Fatal(err)
	}
	ae := s.(*ast.CreateAuditExpression)
	if len(ae.Query.From) != 2 {
		t.Errorf("audit expr from = %+v", ae.Query.From)
	}
}

func TestParseSelectTrigger(t *testing.T) {
	s, err := Parse(`CREATE TRIGGER Log_Alice_Accesses ON ACCESS TO Audit_Alice AS
		INSERT INTO Log SELECT now(), userid(), sqltext(), PatientID FROM ACCESSED`)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.(*ast.CreateTrigger)
	if tr.Event != ast.EventAccess || tr.Target != "Audit_Alice" {
		t.Errorf("trigger = %+v", tr)
	}
	if len(tr.Body) != 1 {
		t.Fatalf("body = %+v", tr.Body)
	}
	if _, ok := tr.Body[0].(*ast.Insert); !ok {
		t.Errorf("body stmt = %T", tr.Body[0])
	}
	if tr.ActionSQL == "" {
		t.Error("action SQL not captured")
	}
}

func TestParseDMLTrigger(t *testing.T) {
	s, err := Parse(`CREATE TRIGGER Notify ON Log AFTER INSERT AS
		IF (SELECT COUNT(DISTINCT PatientID) > 10 FROM Log WHERE UserID = NEW.UserID)
		NOTIFY 'excessive access'`)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.(*ast.CreateTrigger)
	if tr.Event != ast.EventInsert || tr.Target != "Log" {
		t.Errorf("trigger = %+v", tr)
	}
	iff, ok := tr.Body[0].(*ast.If)
	if !ok {
		t.Fatalf("body = %T", tr.Body[0])
	}
	if _, ok := iff.Cond.(*ast.ScalarSubquery); !ok {
		t.Errorf("if cond = %T", iff.Cond)
	}
	if _, ok := iff.Then[0].(*ast.Notify); !ok {
		t.Errorf("then = %T", iff.Then[0])
	}
}

func TestParseTriggerBeginEnd(t *testing.T) {
	s, err := Parse(`CREATE TRIGGER t1 ON ACCESS TO a AS BEGIN
		INSERT INTO log VALUES (1);
		NOTIFY 'hit';
	END`)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.(*ast.CreateTrigger)
	if len(tr.Body) != 2 {
		t.Errorf("body statements = %d", len(tr.Body))
	}
}

func TestParseDrops(t *testing.T) {
	if s, err := Parse("DROP TABLE t"); err != nil || s.(*ast.DropTable).Name != "t" {
		t.Errorf("drop table: %v %v", s, err)
	}
	if s, err := Parse("DROP TRIGGER tr"); err != nil || s.(*ast.DropTrigger).Name != "tr" {
		t.Errorf("drop trigger: %v %v", s, err)
	}
	if s, err := Parse("DROP AUDIT EXPRESSION ae"); err != nil || s.(*ast.DropAuditExpression).Name != "ae" {
		t.Errorf("drop audit expr: %v %v", s, err)
	}
}

func TestParseScriptMultipleStatements(t *testing.T) {
	stmts, err := ParseScript(`CREATE TABLE t (x INT); INSERT INTO t VALUES (1); SELECT * FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Errorf("statements = %d", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"SELECT",
		"SELECT * FROM",
		"SELECT * FROM t WHERE",
		"FROBNICATE the database",
		"SELECT * FROM t GROUP",
		"INSERT INTO t",
		"CREATE TABLE t (x BLOB)",
		"CREATE TRIGGER t ON x AFTER FROBNICATE AS SELECT 1",
		"SELECT * FROM t LIMIT x",
		"SELECT (1 + FROM t",
		"UPDATE t SET",
		"CREATE AUDIT EXPRESSION e AS SELECT * FROM t",
		"SELECT 1 2 3 FROM t WHERE",
	}
	for _, sql := range bad {
		if _, err := ParseScript(sql); err == nil {
			t.Errorf("expected parse error for %q", sql)
		}
	}
}

func TestParseExactlyOne(t *testing.T) {
	if _, err := Parse("SELECT 1; SELECT 2"); err == nil {
		t.Error("Parse should reject multiple statements")
	}
	if _, err := ParseQuery("INSERT INTO t VALUES (1)"); err == nil {
		t.Error("ParseQuery should reject non-SELECT")
	}
}

func TestParseTPCHQ3Shape(t *testing.T) {
	q := mustQuery(t, `
		SELECT l_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue,
		       o_orderdate, o_shippriority
		FROM customer, orders, lineitem
		WHERE c_mktsegment = 'BUILDING'
		  AND c_custkey = o_custkey
		  AND l_orderkey = o_orderkey
		  AND o_orderdate < DATE '1995-03-15'
		  AND l_shipdate > DATE '1995-03-15'
		GROUP BY l_orderkey, o_orderdate, o_shippriority
		ORDER BY revenue DESC, o_orderdate
		LIMIT 10`)
	if len(q.From) != 3 || len(q.GroupBy) != 3 || q.Limit != 10 {
		t.Errorf("q3 shape wrong: from=%d group=%d limit=%d", len(q.From), len(q.GroupBy), q.Limit)
	}
}

func TestParseCreateAuditExpressionPriority(t *testing.T) {
	s, err := Parse(`CREATE AUDIT EXPRESSION Audit_Alice AS
		SELECT * FROM Patients WHERE Name = 'Alice'
		FOR SENSITIVE TABLE Patients, PARTITION BY PatientID PRIORITY 3`)
	if err != nil {
		t.Fatal(err)
	}
	ae := s.(*ast.CreateAuditExpression)
	if ae.Priority != 3 {
		t.Errorf("priority = %d, want 3", ae.Priority)
	}
	for _, bad := range []string{
		`CREATE AUDIT EXPRESSION e AS SELECT * FROM t
			FOR SENSITIVE TABLE t, PARTITION BY a PRIORITY -1`,
		`CREATE AUDIT EXPRESSION e AS SELECT * FROM t
			FOR SENSITIVE TABLE t, PARTITION BY a PRIORITY high`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted bad PRIORITY: %s", bad)
		}
	}
}

// TestParseSysRelation: a dotted name in table position is one
// BaseTable whose Name keeps the dot; the SHOW statements the system
// relations replaced no longer parse, and no DML or DDL takes a dotted
// target.
func TestParseSysRelation(t *testing.T) {
	for sql, want := range map[string]ast.BaseTable{
		"SELECT * FROM sys.traces":                       {Name: "sys.traces"},
		"SELECT trace FROM sys.spans AS s WHERE qid = 5": {Name: "sys.spans", Alias: "s"},
		"SELECT * FROM SYS.Verdicts v":                   {Name: "SYS.Verdicts", Alias: "v"},
	} {
		sel, err := ParseQuery(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if bt, ok := sel.From[0].(*ast.BaseTable); !ok || *bt != want {
			t.Errorf("%s: FROM = %#v, want %#v", sql, sel.From[0], want)
		}
	}
	for _, bad := range []string{
		"SHOW TRACES",
		"SHOW TRACE FOR 5",
		"SHOW AUDIT QUEUE",
		"SHOW AUDIT VERDICTS",
		"SELECT * FROM sys.",
		"SELECT * FROM sys.traces.x",
		"INSERT INTO sys.traces VALUES (1)",
		"UPDATE sys.traces SET qid = 1",
		"DELETE FROM sys.traces",
		"CREATE TABLE sys.traces (qid INT)",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}
