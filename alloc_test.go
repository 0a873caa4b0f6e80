package auditdb

import (
	"fmt"
	"testing"

	"auditdb/internal/tpch"
)

// hotShapes renders the eight point / short-range statement shapes the
// benchmark's point workloads draw from (bench/gen.go hotTemplates),
// with key as the customer (or order) key and bal as the balance bound.
func hotShapes(key, bal int64) []string {
	return []string{
		fmt.Sprintf("SELECT c_name, c_acctbal FROM customer WHERE c_custkey = %d", key),
		fmt.Sprintf("SELECT c_custkey, c_name, c_address, c_phone FROM customer WHERE c_custkey = %d AND c_nationkey >= 0", key),
		fmt.Sprintf("SELECT c_custkey, c_mktsegment FROM customer WHERE c_custkey = %d AND c_acctbal > %d", key, bal),
		fmt.Sprintf("SELECT o_orderkey, o_totalprice, o_orderdate FROM orders WHERE o_orderkey = %d", key),
		fmt.Sprintf("SELECT o_orderkey, o_orderstatus FROM orders WHERE o_custkey = %d", key),
		fmt.Sprintf("SELECT COUNT(*), SUM(o_totalprice) FROM orders WHERE o_custkey = %d", key),
		fmt.Sprintf("SELECT c_name, o_orderkey, o_totalprice FROM customer, orders WHERE c_custkey = o_custkey AND c_custkey = %d AND o_custkey = %d", key, key),
		fmt.Sprintf("SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = %d ORDER BY o_totalprice DESC LIMIT 3", key),
	}
}

// TestHotShapeAllocBudget gates what one warm execution of each hot
// shape allocates through the public Session.Exec, on the point
// workloads' schema: customer and orders, the o_custkey index, a range
// audit expression over customer with an ON ACCESS trigger. The key is
// outside the sensitive range, so no trigger fires and the count is
// the statement path alone: normalize, L1 plan-cache hit, and a run of
// the entry's reused operator tree. Gates: mean <= 12, every shape <= 16.
func TestHotShapeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	d := tpch.Generate(tpch.Config{SF: 0.01})
	db := Open()
	eng := db.Engine()
	if _, err := eng.ExecScript(tpch.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	for name, rows := range map[string][]Row{"customer": d.Customer, "orders": d.Orders} {
		if err := eng.LoadRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	for _, ddl := range []string{
		"CREATE INDEX idx_o_cust ON orders (o_custkey)",
		tpch.AuditCustomerRange("Audit_Cust", 100),
		"CREATE TABLE AccessLog (UserID VARCHAR(30), CustKey INT)",
		"CREATE TRIGGER Log_Access ON ACCESS TO Audit_Cust AS INSERT INTO AccessLog SELECT userid(), c_custkey FROM ACCESSED",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	s := db.NewSession()
	s.SetUser("bench0")
	// Customer 1000 is outside the audited range and has orders, so the
	// join, aggregate and top-k shapes all produce rows.
	var total float64
	for i, sql := range hotShapes(1000, 500) {
		r, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if len(r.Rows) == 0 {
			t.Fatalf("shape %d returned no rows; fixture key has no data", i)
		}
		if n := r.AccessedCount("Audit_Cust"); n != 0 {
			t.Fatalf("shape %d fired on %d ids; the binding must not be sensitive", i, n)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Exec(sql); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("shape %d: %.1f allocs/op  %s", i, allocs, sql)
		if allocs > 16 {
			t.Errorf("shape %d allocates %.1f/op, want <= 16", i, allocs)
		}
		total += allocs
	}
	mean := total / 8
	t.Logf("mean %.2f allocs/op over the eight hot shapes", mean)
	if mean > 12 {
		t.Errorf("hot shapes allocate %.2f/op on average, want <= 12", mean)
	}
}

// TestFiringAllocBudget gates what one warm execution of hot shapes 0–2
// allocates when its key is sensitive, so the statement fires the
// paper's access-log trigger (§II) in its four-column form: ACCESSED is
// built, the chain record and the action run as their own system
// transaction, and the action's INSERT ... SELECT appends one AccessLog
// row through its session's cached plan. Gate: every shape <= 25.
func TestFiringAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	d := tpch.Generate(tpch.Config{SF: 0.01})
	db := Open()
	eng := db.Engine()
	if _, err := eng.ExecScript(tpch.SchemaDDL); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadRows("customer", d.Customer); err != nil {
		t.Fatal(err)
	}
	for _, ddl := range []string{
		tpch.AuditCustomerRange("Audit_Cust", 100),
		"CREATE TABLE AccessLog (At VARCHAR(40), UserID VARCHAR(30), SQL VARCHAR(600), CustKey INT)",
		"CREATE TRIGGER Log_Access ON ACCESS TO Audit_Cust AS INSERT INTO AccessLog SELECT now(), userid(), sqltext(), c_custkey FROM ACCESSED",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatalf("%s: %v", ddl, err)
		}
	}
	s := db.NewSession()
	s.SetUser("bench0")
	// Customer 7 is inside the audited range; every balance passes.
	for i, sql := range hotShapes(7, -1000)[:3] {
		r, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("shape %d: %v", i, err)
		}
		if n := r.AccessedCount("Audit_Cust"); n != 1 {
			t.Fatalf("shape %d recorded %d ids, want the one sensitive key", i, n)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Exec(sql); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("shape %d: %.1f allocs/op  %s", i, allocs, sql)
		if allocs > 25 {
			t.Errorf("shape %d allocates %.1f/op firing, want <= 25", i, allocs)
		}
	}
	r, err := db.Query("SELECT COUNT(*) FROM AccessLog")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := r.Rows[0][0].Int(), int64(3*(1+201)); got != want {
		t.Fatalf("AccessLog holds %d rows, want one per firing statement (%d)", got, want)
	}
}
