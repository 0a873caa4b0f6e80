package tpch

import (
	"strconv"
	"strings"
	"testing"

	"auditdb/internal/engine"
)

func loadSmall(t *testing.T) *engine.Engine {
	t.Helper()
	e, _, err := NewEngine(Config{SF: 0.002})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Config{SF: 0.002})
	b := Generate(Config{SF: 0.002})
	if len(a.Customer) != len(b.Customer) || len(a.LineItem) != len(b.LineItem) {
		t.Fatal("sizes differ across runs")
	}
	for i := range a.Customer {
		if a.Customer[i].String() != b.Customer[i].String() {
			t.Fatalf("row %d differs: %v vs %v", i, a.Customer[i], b.Customer[i])
		}
	}
	c := Generate(Config{SF: 0.002, Seed: 7})
	if c.Customer[0].String() == a.Customer[0].String() &&
		c.Customer[1].String() == a.Customer[1].String() &&
		c.Customer[2].String() == a.Customer[2].String() {
		t.Error("different seeds produced identical prefix")
	}
}

func TestGenerateScales(t *testing.T) {
	d := Generate(Config{SF: 0.002})
	counts := d.Counts()
	if counts["region"] != 5 || counts["nation"] != 25 {
		t.Errorf("fixed tables wrong: %v", counts)
	}
	if counts["customer"] != 300 {
		t.Errorf("customers = %d, want 300", counts["customer"])
	}
	if counts["orders"] != 3000 {
		t.Errorf("orders = %d, want 3000", counts["orders"])
	}
	if counts["lineitem"] < 3000 || counts["lineitem"] > 21000 {
		t.Errorf("lineitem = %d, out of expected band", counts["lineitem"])
	}
	if counts["partsupp"] != 4*counts["part"] {
		t.Errorf("partsupp = %d, part = %d", counts["partsupp"], counts["part"])
	}
}

func TestSegmentDistribution(t *testing.T) {
	d := Generate(Config{SF: 0.01})
	seg := map[string]int{}
	for _, row := range d.Customer {
		seg[row[6].Str()]++
	}
	if len(seg) != 5 {
		t.Fatalf("segments = %v", seg)
	}
	for s, n := range seg {
		frac := float64(n) / float64(len(d.Customer))
		if frac < 0.1 || frac > 0.3 {
			t.Errorf("segment %s fraction %.2f outside [0.1, 0.3]", s, frac)
		}
	}
}

func TestForeignKeysValid(t *testing.T) {
	d := Generate(Config{SF: 0.002})
	nCust := int64(len(d.Customer))
	orderKeys := map[int64]bool{}
	for _, o := range d.Orders {
		if ck := o[1].Int(); ck < 1 || ck > nCust {
			t.Fatalf("order custkey %d out of range", ck)
		}
		orderKeys[o[0].Int()] = true
	}
	for _, l := range d.LineItem {
		if !orderKeys[l[0].Int()] {
			t.Fatalf("lineitem orderkey %d has no order", l[0].Int())
		}
	}
}

func TestLoadIntoEngine(t *testing.T) {
	e := loadSmall(t)
	r, err := e.Query("SELECT COUNT(*) FROM customer")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 300 {
		t.Errorf("customer count = %v", r.Rows[0])
	}
	r, err = e.Query("SELECT COUNT(*) FROM nation")
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0][0].Int() != 25 {
		t.Errorf("nation count = %v", r.Rows[0])
	}
}

func TestAllSevenQueriesRun(t *testing.T) {
	e := loadSmall(t)
	for _, q := range Queries(DefaultParams()) {
		r, err := e.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s failed: %v", q.Name, err)
		}
		t.Logf("%s: %d rows", q.Name, len(r.Rows))
	}
}

func TestQ3ReturnsRevenueOrdered(t *testing.T) {
	e := loadSmall(t)
	q := Queries(DefaultParams())[0]
	r, err := e.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Skip("Q3 empty at this scale; acceptable but nothing to check")
	}
	prev := r.Rows[0][1].Float()
	for _, row := range r.Rows[1:] {
		if row[1].Float() > prev {
			t.Fatalf("revenue not descending: %v", r.Rows)
		}
		prev = row[1].Float()
	}
	if len(r.Rows) > 10 {
		t.Errorf("Q3 LIMIT 10 violated: %d rows", len(r.Rows))
	}
}

func TestQ13CountsCustomersWithoutOrders(t *testing.T) {
	e := loadSmall(t)
	q := Queries(DefaultParams())[5]
	if q.Name != "Q13" {
		t.Fatalf("query order changed: %s", q.Name)
	}
	r, err := e.Query(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	// The distribution must cover every customer exactly once.
	total := int64(0)
	for _, row := range r.Rows {
		total += row[1].Int()
	}
	if total != 300 {
		t.Errorf("Q13 distribution sums to %d customers, want 300", total)
	}
}

func TestMicroJoinQueryTemplate(t *testing.T) {
	e := loadSmall(t)
	r, err := e.Query(MicroJoinQuery(0, "1992-01-01"))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Error("micro query returned nothing")
	}
}

func TestAuditExpressionTemplates(t *testing.T) {
	e := loadSmall(t)
	if _, err := e.Exec(AuditCustomerSegment("Audit_Seg", "BUILDING")); err != nil {
		t.Fatal(err)
	}
	ae, ok := e.Registry().Get("Audit_Seg")
	if !ok {
		t.Fatal("expression missing")
	}
	frac := float64(ae.Cardinality()) / 300
	if frac < 0.1 || frac > 0.35 {
		t.Errorf("segment audit covers %.2f of customers", frac)
	}
	if _, err := e.Exec(AuditCustomerRange("Audit_Range", 10)); err != nil {
		t.Fatal(err)
	}
	ar, _ := e.Registry().Get("Audit_Range")
	if ar.Cardinality() != 10 {
		t.Errorf("range audit cardinality = %d, want 10", ar.Cardinality())
	}
}

func TestNonCustomerQueriesRun(t *testing.T) {
	e := loadSmall(t)
	for _, q := range NonCustomerQueries() {
		r, err := e.Query(q.SQL)
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if len(r.Rows) == 0 {
			t.Errorf("%s returned nothing", q.Name)
		}
		t.Logf("%s: %d rows", q.Name, len(r.Rows))
	}
}

func TestQ4CountsOnlyLateOrders(t *testing.T) {
	e := loadSmall(t)
	var q4 Query
	for _, q := range NonCustomerQueries() {
		if q.Name == "Q4" {
			q4 = q
		}
	}
	r, err := e.Query(q4.SQL)
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, row := range r.Rows {
		total += row[1].Int()
	}
	// Cross-check against a direct count of qualifying orders.
	chk, err := e.Query(`SELECT COUNT(*) FROM orders
		WHERE o_orderdate >= DATE '1993-07-01' AND o_orderdate < DATE '1993-10-01'
		AND EXISTS (SELECT 1 FROM lineitem
		            WHERE l_orderkey = o_orderkey AND l_commitdate < l_receiptdate)`)
	if err != nil {
		t.Fatal(err)
	}
	if total != chk.Rows[0][0].Int() {
		t.Errorf("Q4 total %d != direct count %v", total, chk.Rows[0][0])
	}
}

func TestNonCustomerQueriesNotInstrumented(t *testing.T) {
	e := loadSmall(t)
	if _, err := e.Exec(AuditCustomerSegment("Audit_Seg", "BUILDING")); err != nil {
		t.Fatal(err)
	}
	e.SetAuditAll(true)
	for _, q := range NonCustomerQueries() {
		s, err := e.Explain(q.SQL, true)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(s, "Audit(") {
			t.Errorf("%s: audit operator inserted into a query that never reads customer:\n%s", q.Name, s)
		}
		r, err := e.Query(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if r.Accessed != nil && r.Accessed.Len("Audit_Seg") != 0 {
			t.Errorf("%s recorded accesses", q.Name)
		}
	}
}

// TestQ3BuildsSmallerInput: Q3's lineitem join builds its hash table on
// the customer⋈orders input, the smaller one, and EXPLAIN ANALYZE says
// so; the rows it builds are fewer than the lineitem rows it probes.
func TestQ3BuildsSmallerInput(t *testing.T) {
	e := loadSmall(t)
	text, err := e.ExplainAnalyze(Queries(DefaultParams())[0].SQL)
	if err != nil {
		t.Fatal(err)
	}
	rowsOf := func(line string) int {
		i := strings.Index(line, "(rows=")
		if i < 0 {
			t.Fatalf("no row count in %q", line)
		}
		n, err := strconv.Atoi(line[i+len("(rows=") : i+strings.IndexByte(line[i:], ' ')])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if !strings.Contains(line, "InnerJoin((l_orderkey = o_orderkey))") {
			continue
		}
		if !strings.Contains(line, "build=left") {
			t.Fatalf("the lineitem join built its right input:\n%s", text)
		}
		built, probe := lines[i+1], ""
		for _, l := range lines[i+1:] {
			if strings.Contains(l, "Scan(lineitem") {
				probe = l
				break
			}
		}
		if probe == "" || rowsOf(built) >= rowsOf(probe) {
			t.Fatalf("built %q, probed %q: the build is not the smaller input\n%s", built, probe, text)
		}
		return
	}
	t.Fatalf("no lineitem join in\n%s", text)
}
