package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"auditdb/internal/catalog"
	"auditdb/internal/exec"
	"auditdb/internal/opt"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// fixture builds a catalog + store with the paper's health schema and
// a registry holding an all-patients audit expression.
type fixture struct {
	cat   *catalog.Catalog
	store *storage.Store
	reg   *Registry
	ae    *AuditExpression
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	patients := &catalog.TableMeta{
		Name: "Patients",
		Columns: []catalog.Column{
			{Name: "PatientID", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
			{Name: "Age", Type: value.KindInt},
		},
		PrimaryKey: []int{0},
	}
	disease := &catalog.TableMeta{
		Name: "Disease",
		Columns: []catalog.Column{
			{Name: "PatientID", Type: value.KindInt},
			{Name: "Disease", Type: value.KindString},
		},
	}
	for _, m := range []*catalog.TableMeta{patients, disease} {
		if err := cat.AddTable(m); err != nil {
			t.Fatal(err)
		}
		if _, err := store.Create(m); err != nil {
			t.Fatal(err)
		}
	}
	pt, _ := store.Table("Patients")
	dt, _ := store.Table("Disease")
	rows := []struct {
		id   int64
		name string
		age  int64
	}{
		{1, "Alice", 34}, {2, "Bob", 21}, {3, "Carol", 47}, {4, "Dave", 29}, {5, "Erin", 62},
	}
	for _, r := range rows {
		if _, err := pt.Insert(value.Row{value.NewInt(r.id), value.NewString(r.name), value.NewInt(r.age)}); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []struct {
		id int64
		d  string
	}{{1, "cancer"}, {2, "flu"}, {3, "flu"}, {4, "diabetes"}, {5, "cancer"}} {
		if _, err := dt.Insert(value.Row{value.NewInt(d.id), value.NewString(d.d)}); err != nil {
			t.Fatal(err)
		}
	}

	reg := NewRegistry(cat, store)
	meta := &catalog.AuditExprMeta{Name: "Audit_All", SensitiveTable: "Patients", PartitionBy: "PatientID"}
	def, err := parser.ParseQuery("SELECT * FROM Patients WHERE PatientID > 0")
	if err != nil {
		t.Fatal(err)
	}
	ae, err := reg.Compile(meta, def)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{cat: cat, store: store, reg: reg, ae: ae}
}

func (f *fixture) plan(t *testing.T, sql string) plan.Node {
	t.Helper()
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(&plan.Env{Catalog: f.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Optimize(n)
}

func (f *fixture) run(t *testing.T, n plan.Node) []value.Row {
	t.Helper()
	rows, err := exec.Run(n, exec.NewCtx(f.store))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestCompileValidation(t *testing.T) {
	f := newFixture(t)
	bad := []struct {
		table, key, def string
	}{
		{"Nope", "PatientID", "SELECT * FROM Patients"},
		{"Patients", "Nope", "SELECT * FROM Patients"},
		{"Patients", "PatientID", "SELECT * FROM Patients ORDER BY Age"},
		{"Patients", "PatientID", "SELECT * FROM Patients WHERE EXISTS (SELECT 1 FROM Disease)"},
		{"Patients", "PatientID", "SELECT COUNT(*) FROM Patients GROUP BY Age"},
		{"Patients", "PatientID", "SELECT * FROM Disease"},
	}
	for i, c := range bad {
		def, err := parser.ParseQuery(c.def)
		if err != nil {
			t.Fatal(err)
		}
		meta := &catalog.AuditExprMeta{Name: "bad", SensitiveTable: c.table, PartitionBy: c.key}
		if _, err := f.reg.Compile(meta, def); err == nil {
			t.Errorf("case %d: expected compile error", i)
		}
	}
	// Duplicate name.
	def, _ := parser.ParseQuery("SELECT * FROM Patients")
	meta := &catalog.AuditExprMeta{Name: "Audit_All", SensitiveTable: "Patients", PartitionBy: "PatientID"}
	if _, err := f.reg.Compile(meta, def); err == nil {
		t.Error("duplicate expression name should fail")
	}
}

func TestContainsAndIDs(t *testing.T) {
	f := newFixture(t)
	if f.ae.Cardinality() != 5 {
		t.Fatalf("cardinality = %d", f.ae.Cardinality())
	}
	if !f.ae.Contains(value.NewInt(3)) || f.ae.Contains(value.NewInt(99)) {
		t.Error("Contains wrong")
	}
	if f.ae.Contains(value.Null) {
		t.Error("NULL is never sensitive")
	}
	if len(f.ae.IDs()) != 5 {
		t.Errorf("IDs = %v", f.ae.IDs())
	}
}

func TestRegistryApplyIncremental(t *testing.T) {
	f := newFixture(t)
	newRow := value.Row{value.NewInt(6), value.NewString("Frank"), value.NewInt(40)}
	if err := f.reg.Apply("Patients", []value.Row{newRow}, nil); err != nil {
		t.Fatal(err)
	}
	if !f.ae.Contains(value.NewInt(6)) {
		t.Error("insert not reflected")
	}
	if err := f.reg.Apply("Patients", nil, []value.Row{newRow}); err != nil {
		t.Fatal(err)
	}
	if f.ae.Contains(value.NewInt(6)) {
		t.Error("delete not reflected")
	}
	// DML against an unreferenced table is a no-op.
	if err := f.reg.Apply("Disease", []value.Row{{value.NewInt(1), value.NewString("x")}}, nil); err != nil {
		t.Fatal(err)
	}
	if f.ae.Cardinality() != 5 {
		t.Error("unrelated DML changed the set")
	}
}

func TestAccessedState(t *testing.T) {
	acc := NewAccessed()
	acc.Record("e1", value.NewInt(3))
	acc.Record("e1", value.NewInt(1))
	acc.Record("e1", value.NewInt(3)) // dedup
	acc.Record("e2", value.NewInt(9))
	if acc.Len("e1") != 2 || acc.Len("e2") != 1 || acc.Len("e3") != 0 {
		t.Errorf("lens = %d %d %d", acc.Len("e1"), acc.Len("e2"), acc.Len("e3"))
	}
	ids := acc.IDs("e1")
	if len(ids) != 2 || ids[0].Int() != 1 || ids[1].Int() != 3 {
		t.Errorf("ids = %v (must be sorted)", ids)
	}
	exprs := acc.Expressions()
	if len(exprs) != 2 || exprs[0] != "e1" {
		t.Errorf("expressions = %v", exprs)
	}
}

func TestProbeRecordsOnlySensitive(t *testing.T) {
	f := newFixture(t)
	acc := NewAccessed()
	p := &Probe{Expr: f.ae, Acc: acc}
	hits := 0
	for _, v := range []value.Value{value.NewInt(1), value.NewInt(999), value.Null} {
		hits += p.ObserveBatch([]value.Value{v})
	}
	if acc.Len("Audit_All") != 1 || hits != 1 {
		t.Errorf("recorded = %d, hits = %d", acc.Len("Audit_All"), hits)
	}
}

func TestLeafPlacementStructure(t *testing.T) {
	f := newFixture(t)
	n := f.plan(t, `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`)
	acc := NewAccessed()
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: acc}, LeafNode)
	s := plan.Explain(n)
	// The audit operator must sit directly above the Patients scan.
	if !strings.Contains(s, "Audit(Audit_All") {
		t.Fatalf("no audit operator:\n%s", s)
	}
	lines := strings.Split(s, "\n")
	for i, line := range lines {
		if strings.Contains(line, "Audit(") {
			if i+1 >= len(lines) || !strings.Contains(lines[i+1], "Scan(Patients") {
				t.Errorf("audit operator not above the sensitive scan:\n%s", s)
			}
		}
	}
}

func TestHCNPullsAboveJoin(t *testing.T) {
	f := newFixture(t)
	n := f.plan(t, `SELECT P.Name FROM Patients P, Disease D
		WHERE P.PatientID = D.PatientID AND D.Disease = 'flu'`)
	acc := NewAccessed()
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: acc}, HighestCommutativeNode)
	s := plan.Explain(n)
	idxAudit := strings.Index(s, "Audit(")
	idxJoin := strings.Index(s, "Join")
	if idxAudit < 0 || idxJoin < 0 || idxAudit > idxJoin {
		t.Errorf("audit operator should sit above the join:\n%s", s)
	}
	// Execute and verify correct IDs (Bob=2, Carol=3 have flu).
	f.run(t, n)
	ids := acc.IDs("Audit_All")
	if len(ids) != 2 || ids[0].Int() != 2 || ids[1].Int() != 3 {
		t.Errorf("hcn ids = %v", ids)
	}
}

func TestHCNStopsBelowAggregate(t *testing.T) {
	f := newFixture(t)
	n := f.plan(t, "SELECT Age, COUNT(*) FROM Patients GROUP BY Age")
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: NewAccessed()}, HighestCommutativeNode)
	s := plan.Explain(n)
	idxAudit := strings.Index(s, "Audit(")
	idxAgg := strings.Index(s, "Aggregate(")
	if idxAudit < idxAgg {
		t.Errorf("audit operator must stay below the aggregate:\n%s", s)
	}
}

func TestHCNStopsBelowLimitAndDistinct(t *testing.T) {
	f := newFixture(t)
	for _, q := range []string{
		"SELECT Name FROM Patients ORDER BY Age LIMIT 2",
		"SELECT DISTINCT Name FROM Patients",
	} {
		n := f.plan(t, q)
		n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: NewAccessed()}, HighestCommutativeNode)
		s := plan.Explain(n)
		idxAudit := strings.Index(s, "Audit(")
		idxLimit := strings.Index(s, "Limit(")
		idxDistinct := strings.Index(s, "Distinct")
		if idxLimit >= 0 && idxAudit < idxLimit {
			t.Errorf("%s: audit above limit:\n%s", q, s)
		}
		if idxDistinct >= 0 && idxAudit < idxDistinct {
			t.Errorf("%s: audit above distinct:\n%s", q, s)
		}
	}
}

func TestInstrumentationPerSubqueryBlock(t *testing.T) {
	f := newFixture(t)
	n := f.plan(t, `SELECT 1 FROM Disease WHERE EXISTS
		(SELECT * FROM Patients WHERE Age > 30)`)
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: NewAccessed()}, HighestCommutativeNode)
	if got := CountAuditOps(n, true); got != 1 {
		t.Errorf("audit ops = %d, want 1 (inside the subquery block)", got)
	}
	if got := CountAuditOps(n, false); got != 0 {
		t.Errorf("main block audit ops = %d, want 0", got)
	}
}

func TestSelfJoinGetsTwoOperators(t *testing.T) {
	f := newFixture(t)
	n := f.plan(t, `SELECT P1.Name FROM Patients P1, Patients P2
		WHERE P1.Age < P2.Age`)
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: NewAccessed()}, HighestCommutativeNode)
	if got := CountAuditOps(n, true); got != 2 {
		t.Errorf("audit ops = %d, want 2 (one per instance)\n%s", got, plan.Explain(n))
	}
}

func TestInstrumentedPlanSameResults(t *testing.T) {
	f := newFixture(t)
	queries := []string{
		"SELECT Name FROM Patients WHERE Age > 25",
		"SELECT Age, COUNT(*) FROM Patients GROUP BY Age",
		"SELECT Name FROM Patients ORDER BY Age LIMIT 3",
	}
	for _, q := range queries {
		plain := f.run(t, f.plan(t, q))
		for _, h := range []Heuristic{LeafNode, HighestCommutativeNode, HighestNode} {
			n := Instrument(f.plan(t, q), f.ae, &Probe{Expr: f.ae, Acc: NewAccessed()}, h)
			got := f.run(t, n)
			if len(got) != len(plain) {
				t.Errorf("%s under %v: %d rows vs %d", q, h, len(got), len(plain))
				continue
			}
			for i := range got {
				if got[i].String() != plain[i].String() {
					t.Errorf("%s under %v: row %d differs", q, h, i)
				}
			}
		}
	}
}

func TestHeuristicString(t *testing.T) {
	if LeafNode.String() != "leaf-node" || HighestCommutativeNode.String() != "hcn" ||
		HighestNode.String() != "highest-node" {
		t.Error("heuristic names wrong")
	}
}

func TestContainsQuick(t *testing.T) {
	f := newFixture(t)
	// Property: Contains agrees with the materialized set for any id.
	ids := map[int64]bool{1: true, 2: true, 3: true, 4: true, 5: true}
	fn := func(id int64) bool {
		return f.ae.Contains(value.NewInt(id)) == ids[id]
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCompileRejectsPlaceholders(t *testing.T) {
	f := newFixture(t)
	def, err := parser.ParseQuery("SELECT * FROM Patients WHERE Age > ?")
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.AuditExprMeta{Name: "ph", SensitiveTable: "Patients", PartitionBy: "PatientID"}
	if _, err := f.reg.Compile(meta, def); err == nil {
		t.Error("placeholders in audit expression definitions must be rejected")
	}
}

func TestMaintenanceConvergesUnderRandomDML(t *testing.T) {
	// Property: after any sequence of inserts/deletes, the incremental
	// ID set equals a from-scratch recomputation.
	rng := rand.New(rand.NewSource(99))
	f := newFixture(t)
	// Audit expression over ages (single-table incremental path).
	def, err := parser.ParseQuery("SELECT * FROM Patients WHERE Age >= 40")
	if err != nil {
		t.Fatal(err)
	}
	meta := &catalog.AuditExprMeta{Name: "Audit_Old", SensitiveTable: "Patients", PartitionBy: "PatientID"}
	ae, err := f.reg.Compile(meta, def)
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := f.store.Table("Patients")
	live := map[int64]storage.RowID{}
	tbl.Snapshot(func(id storage.RowID, row value.Row) bool {
		live[row[0].Int()] = id
		return true
	})
	next := int64(100)
	for step := 0; step < 300; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			age := int64(20 + rng.Intn(50))
			row := value.Row{value.NewInt(next), value.NewString("p"), value.NewInt(age)}
			id, err := tbl.Insert(row)
			if err != nil {
				t.Fatal(err)
			}
			stored, _ := tbl.Get(id)
			if err := f.reg.Apply("Patients", []value.Row{stored}, nil); err != nil {
				t.Fatal(err)
			}
			live[next] = id
			next++
		} else {
			// Delete a random live row.
			var pick int64
			for k := range live {
				pick = k
				break
			}
			old, err := tbl.Delete(live[pick])
			if err != nil {
				t.Fatal(err)
			}
			if err := f.reg.Apply("Patients", nil, []value.Row{old}); err != nil {
				t.Fatal(err)
			}
			delete(live, pick)
		}
	}
	// Recompute ground truth by scanning.
	want := map[int64]bool{}
	tbl.Snapshot(func(_ storage.RowID, row value.Row) bool {
		if row[2].Int() >= 40 {
			want[row[0].Int()] = true
		}
		return true
	})
	got := map[int64]bool{}
	for _, v := range ae.IDs() {
		got[v.Int()] = true
	}
	if len(got) != len(want) {
		t.Fatalf("incremental set diverged: got %d want %d", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("id %d missing from incremental set", k)
		}
	}
}

func TestExample38cTwoOperators(t *testing.T) {
	// Example 3.8(c): the sensitive table appears in the outer block
	// AND inside a correlated subquery; one audit operator lands at
	// the top of each block (it cannot be pulled out of the subquery's
	// scope).
	f := newFixture(t)
	n := f.plan(t, `SELECT * FROM Patients P1
		WHERE Name IN (SELECT Name FROM Patients P2 WHERE P1.Age <> P2.Age)`)
	acc := NewAccessed()
	n = Instrument(n, f.ae, &Probe{Expr: f.ae, Acc: acc}, HighestCommutativeNode)
	if got := CountAuditOps(n, true); got != 2 {
		t.Fatalf("audit ops = %d, want 2 (one per block)\n%s", got, plan.Explain(n))
	}
	if got := CountAuditOps(n, false); got != 1 {
		t.Errorf("outer block ops = %d, want 1", got)
	}
	// Executing the instrumented plan records accesses from both
	// blocks; with distinct ages everywhere, every patient pair with
	// matching names is itself, so the result is empty but patients
	// were still probed inside the subquery.
	rows := f.run(t, n)
	_ = rows
	if acc.Len("Audit_All") == 0 {
		t.Error("subquery-block operator recorded nothing")
	}
}
