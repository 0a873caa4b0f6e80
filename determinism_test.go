package auditdb

import (
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"

	"auditdb/internal/engine"
	"auditdb/internal/tpch"
	"auditdb/internal/value"
)

// workerMatrix returns the worker counts the determinism suite runs
// at. CI sets WORKERS to pin one point of the matrix (e.g. WORKERS=4);
// unset, the suite sweeps 1, 2 and 8.
func workerMatrix(t *testing.T) []int {
	t.Helper()
	if env := os.Getenv("WORKERS"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil || n < 1 {
			t.Fatalf("bad WORKERS=%q", env)
		}
		return []int{n}
	}
	return []int{1, 2, 8}
}

func canonical(rows []Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			b = value.EncodeKey(b, v)
		}
		out[i] = string(b)
	}
	sort.Strings(out)
	return out
}

func sameStrings(a, b []string) bool {
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

func accessedKeys(r *Result, expr string) []string {
	var out []string
	for _, v := range r.AccessedIDs(expr) {
		out = append(out, value.KeyOf(v))
	}
	return out
}

// TestHealthcareDeterminismAcrossWorkers: the paper's §II demo must
// produce identical result sets and identical ACCESSED id-sets at
// every worker count, including explicit ORDER BY row order.
func TestHealthcareDeterminismAcrossWorkers(t *testing.T) {
	queries := []struct {
		sql     string
		ordered bool
	}{
		{"SELECT * FROM Patients", false},
		{"SELECT Name, Age FROM Patients WHERE Zip = '48109'", false},
		{"SELECT p.Name, d.Disease FROM Patients p, Disease d WHERE p.PatientID = d.PatientID", false},
		{"SELECT Zip, COUNT(*), MIN(Age), MAX(Age) FROM Patients GROUP BY Zip", false},
		{"SELECT Name FROM Patients ORDER BY Age DESC", true},
	}

	load := func(workers int) *DB {
		db := Open()
		if _, err := db.ExecScript(HealthcareDemo); err != nil {
			t.Fatal(err)
		}
		if workers > 0 {
			db.Engine().SetDefaultWorkers(workers)
			db.Engine().SetParallelMinRows(1)
		}
		return db
	}
	serial := load(0)
	for _, workers := range workerMatrix(t) {
		par := load(workers)
		for _, q := range queries {
			rs, err := serial.Query(q.sql)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Query(q.sql)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, q.sql, err)
			}
			if q.ordered {
				// Above an explicit Sort row order is guaranteed; compare
				// positionally.
				for i := range rs.Rows {
					for j := range rs.Rows[i] {
						if value.Compare(rs.Rows[i][j], rp.Rows[i][j]) != 0 {
							t.Fatalf("workers=%d %q: ordered row %d diverges", workers, q.sql, i)
						}
					}
				}
			} else if !sameStrings(canonical(rs.Rows), canonical(rp.Rows)) {
				t.Fatalf("workers=%d %q: result set diverges from serial", workers, q.sql)
			}
			if !sameStrings(accessedKeys(rs, "Audit_Alice"), accessedKeys(rp, "Audit_Alice")) {
				t.Fatalf("workers=%d %q: ACCESSED id-set diverges from serial", workers, q.sql)
			}
		}
	}
}

// TestTPCHDeterminismAcrossWorkers runs the §V-C workload (the paper's
// Figure 6 query set) plus the non-customer control queries (Figure 9)
// at SF 0.01 under audit-all, and requires result sets and ACCESSED
// id-sets identical to serial at every worker count.
func TestTPCHDeterminismAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("TPC-H determinism sweep skipped in -short")
	}
	const auditExpr = "Audit_Building"

	load := func(workers int) *engine.Engine {
		e, _, err := tpch.NewEngine(tpch.Config{SF: 0.01})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := e.Exec(tpch.AuditCustomerSegment(auditExpr, "BUILDING")); err != nil {
			t.Fatal(err)
		}
		e.SetAuditAll(true)
		if workers > 0 {
			e.SetDefaultWorkers(workers)
			e.SetParallelMinRows(1)
		}
		return e
	}

	queries := append(tpch.Queries(tpch.DefaultParams()), tpch.NonCustomerQueries()...)
	serial := load(0)
	serialRows := make(map[string][]string)
	serialIDs := make(map[string][]string)
	for _, q := range queries {
		r, err := serial.Query(q.SQL)
		if err != nil {
			t.Fatalf("serial %s: %v", q.Name, err)
		}
		serialRows[q.Name] = canonical(r.Rows)
		serialIDs[q.Name] = idKeys(r, auditExpr)
	}

	for _, workers := range workerMatrix(t) {
		par := load(workers)
		for _, q := range queries {
			r, err := par.Query(q.SQL)
			if err != nil {
				t.Fatalf("workers=%d %s: %v", workers, q.Name, err)
			}
			if !sameStrings(canonical(r.Rows), serialRows[q.Name]) {
				t.Fatalf("workers=%d %s: result set diverges from serial", workers, q.Name)
			}
			if ids := idKeys(r, auditExpr); !sameStrings(ids, serialIDs[q.Name]) {
				t.Fatalf("workers=%d %s: ACCESSED %d ids, serial %d — audit set diverges",
					workers, q.Name, len(ids), len(serialIDs[q.Name]))
			}
		}
	}
}

// TestPointTemplatesPlanSerial: the eight hot point shapes of the
// benchmark's point workloads are index lookups (primary key or the
// o_custkey index) into tables larger than the parallelism threshold.
// At any worker budget they must plan without an exchange — a worker
// pool for a handful of rows costs several times the lookup — and
// return the serial rows and ACCESSED ids.
func TestPointTemplatesPlanSerial(t *testing.T) {
	const auditExpr = "Audit_Range"
	load := func(workers int) *engine.Engine {
		d := tpch.Generate(tpch.Config{SF: 0.02})
		e := engine.New()
		if _, err := e.ExecScript(tpch.SchemaDDL); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadRows("customer", d.Customer); err != nil {
			t.Fatal(err)
		}
		if err := e.LoadRows("orders", d.Orders); err != nil {
			t.Fatal(err)
		}
		for _, ddl := range []string{"CREATE INDEX idx_o_cust ON orders (o_custkey)", tpch.AuditCustomerRange(auditExpr, 300)} {
			if _, err := e.Exec(ddl); err != nil {
				t.Fatal(err)
			}
		}
		e.SetAuditAll(true)
		e.SetDefaultWorkers(workers)
		return e
	}
	templates := hotShapes(7, -1000)
	serial := load(1)
	for _, workers := range []int{2, 8} {
		par := load(workers)
		// The fixture must be on the parallel side of the threshold, or
		// the assertion below would hold for the wrong reason.
		r, err := par.Exec("EXPLAIN SELECT o_orderkey FROM orders WHERE o_totalprice > 0")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(planText(r), "Gather") {
			t.Fatalf("workers=%d: a full scan of orders does not plan under Gather; fixture too small:\n%s", workers, planText(r))
		}
		for _, sql := range templates {
			r, err := par.Exec("EXPLAIN " + sql)
			if err != nil {
				t.Fatalf("workers=%d EXPLAIN %q: %v", workers, sql, err)
			}
			if txt := planText(r); strings.Contains(txt, "Gather") || strings.Contains(txt, "[parallel]") {
				t.Errorf("workers=%d %q: index lookup planned parallel:\n%s", workers, sql, txt)
			}
			rs, err := serial.Query(sql)
			if err != nil {
				t.Fatal(err)
			}
			rp, err := par.Query(sql)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, sql, err)
			}
			if !sameStrings(canonical(rs.Rows), canonical(rp.Rows)) {
				t.Errorf("workers=%d %q: result set diverges from serial", workers, sql)
			}
			if !sameStrings(idKeys(rs, auditExpr), idKeys(rp, auditExpr)) {
				t.Errorf("workers=%d %q: ACCESSED id-set diverges from serial", workers, sql)
			}
		}
	}
}

// idKeys is accessedKeys for engine results.
func idKeys(r *engine.Result, expr string) []string {
	var out []string
	if r.Accessed != nil {
		for _, v := range r.Accessed.IDs(expr) {
			out = append(out, value.KeyOf(v))
		}
	}
	return out
}

// TestSessionSetWorkersIsolation: one session forcing serial must not
// affect another session's parallel budget on the same engine.
func TestSessionSetWorkersIsolation(t *testing.T) {
	db := Open()
	if _, err := db.ExecScript(HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	eng := db.Engine()
	eng.SetDefaultWorkers(4)
	eng.SetParallelMinRows(1)

	serialSess := eng.NewSession()
	defer serialSess.Close()
	serialSess.SetWorkers(1)

	before := eng.StatsSnapshot()["parallel_queries"]
	if _, err := serialSess.Query("SELECT * FROM Patients"); err != nil {
		t.Fatal(err)
	}
	if got := eng.StatsSnapshot()["parallel_queries"]; got != before {
		t.Fatalf("SET WORKERS 1 session still ran parallel (counter %d -> %d)", before, got)
	}

	parSess := eng.NewSession()
	defer parSess.Close()
	if _, err := parSess.Query("SELECT * FROM Patients"); err != nil {
		t.Fatal(err)
	}
	if got := eng.StatsSnapshot()["parallel_queries"]; got != before+1 {
		t.Fatalf("default session did not inherit engine workers (counter %d, want %d)", got, before+1)
	}

	// EXPLAIN from the serial session shows no exchange; from the
	// parallel one it does.
	serialPlan, err := serialSess.Exec("EXPLAIN SELECT * FROM Patients")
	if err != nil {
		t.Fatal(err)
	}
	if planText(serialPlan) != "" && strings.Contains(planText(serialPlan), "Gather") {
		t.Fatal("serial session's EXPLAIN shows a Gather exchange")
	}
}

func planText(r *engine.Result) string {
	var b strings.Builder
	for _, row := range r.Rows {
		b.WriteString(row[0].S)
		b.WriteByte('\n')
	}
	return b.String()
}
