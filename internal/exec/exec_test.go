package exec

import (
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/opt"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

type harness struct {
	cat   *catalog.Catalog
	store *storage.Store
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	cat := catalog.New()
	store := storage.NewStore()
	add := func(meta *catalog.TableMeta, rows []value.Row) {
		if err := cat.AddTable(meta); err != nil {
			t.Fatal(err)
		}
		tbl, err := store.Create(meta)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if _, err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	add(&catalog.TableMeta{
		Name: "emp",
		Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "dept", Type: value.KindString},
			{Name: "sal", Type: value.KindInt},
		},
	}, []value.Row{
		{value.NewInt(1), value.NewString("eng"), value.NewInt(100)},
		{value.NewInt(2), value.NewString("eng"), value.NewInt(200)},
		{value.NewInt(3), value.NewString("ops"), value.NewInt(150)},
		{value.NewInt(4), value.NewString("hr"), value.Null},
	})
	add(&catalog.TableMeta{
		Name: "dept",
		Columns: []catalog.Column{
			{Name: "name", Type: value.KindString},
			{Name: "floor", Type: value.KindInt},
		},
	}, []value.Row{
		{value.NewString("eng"), value.NewInt(3)},
		{value.NewString("ops"), value.NewInt(1)},
	})
	return &harness{cat: cat, store: store}
}

func mustPlan(t *testing.T, h *harness, sql string) plan.Node {
	t.Helper()
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(&plan.Env{Catalog: h.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	return opt.Optimize(n)
}

func (h *harness) query(t *testing.T, sql string) []value.Row {
	t.Helper()
	rows, err := Run(mustPlan(t, h, sql), NewCtx(h.store))
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestScanWithMask(t *testing.T) {
	h := newHarness(t)
	sel, _ := parser.ParseQuery("SELECT id FROM emp")
	n, err := plan.Build(&plan.Env{Catalog: h.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(h.store)
	mask := storage.NewMask()
	mask.Hide("emp", 1) // row id 1 = employee 2
	ctx.Mask = mask
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("masked scan rows = %v", rows)
	}
	for _, r := range rows {
		if r[0].Int() == 2 {
			t.Errorf("masked row leaked: %v", rows)
		}
	}
}

func TestHashJoinInner(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, `SELECT e.id, d.floor FROM emp e, dept d WHERE e.dept = d.name ORDER BY e.id`)
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
	if rows[0][1].Int() != 3 || rows[2][1].Int() != 1 {
		t.Errorf("rows = %v", rows)
	}
}

func TestHashJoinNullKeysNeverMatch(t *testing.T) {
	h := newHarness(t)
	// Add an employee with NULL dept; it must not join.
	tbl, _ := h.store.Table("emp")
	if _, err := tbl.Insert(value.Row{value.NewInt(9), value.Null, value.NewInt(1)}); err != nil {
		t.Fatal(err)
	}
	rows := h.query(t, `SELECT e.id FROM emp e, dept d WHERE e.dept = d.name`)
	for _, r := range rows {
		if r[0].Int() == 9 {
			t.Errorf("NULL key joined: %v", rows)
		}
	}
}

func TestLeftJoinNullExtension(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, `SELECT e.id, d.floor FROM emp e LEFT JOIN dept d ON e.dept = d.name ORDER BY e.id`)
	if len(rows) != 4 {
		t.Fatalf("rows = %v", rows)
	}
	last := rows[3] // hr employee has no dept row
	if last[0].Int() != 4 || !last[1].IsNull() {
		t.Errorf("null extension wrong: %v", last)
	}
}

func TestNLJoinNonEqui(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, `SELECT e1.id, e2.id FROM emp e1 JOIN emp e2 ON e1.sal < e2.sal ORDER BY e1.id, e2.id`)
	// sal: 100 < 200, 100 < 150, 150 < 200 -> 3 pairs (NULL sal joins nothing).
	if len(rows) != 3 {
		t.Fatalf("rows = %v", rows)
	}
}

func TestCrossJoin(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, `SELECT e.id, d.name FROM emp e CROSS JOIN dept d`)
	if len(rows) != 8 {
		t.Errorf("cross join rows = %d, want 8", len(rows))
	}
}

func TestAggregateNullHandling(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, "SELECT COUNT(*), COUNT(sal), SUM(sal), AVG(sal), MIN(sal), MAX(sal) FROM emp")
	r := rows[0]
	if r[0].Int() != 4 || r[1].Int() != 3 {
		t.Errorf("counts = %v", r)
	}
	if r[2].Int() != 450 || r[3].Float() != 150 {
		t.Errorf("sum/avg = %v", r)
	}
	if r[4].Int() != 100 || r[5].Int() != 200 {
		t.Errorf("min/max = %v", r)
	}
}

func TestGroupByGroups(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, "SELECT dept, COUNT(*) FROM emp GROUP BY dept ORDER BY dept")
	if len(rows) != 3 {
		t.Fatalf("groups = %v", rows)
	}
	if rows[0][0].Str() != "eng" || rows[0][1].Int() != 2 {
		t.Errorf("groups = %v", rows)
	}
}

func TestSortStability(t *testing.T) {
	h := newHarness(t)
	// NULL sal sorts first ascending.
	rows := h.query(t, "SELECT id, sal FROM emp ORDER BY sal, id")
	if !rows[0][1].IsNull() {
		t.Errorf("NULL should sort first: %v", rows)
	}
	rows = h.query(t, "SELECT id, sal FROM emp ORDER BY sal DESC")
	if rows[0][1].Int() != 200 {
		t.Errorf("desc order wrong: %v", rows)
	}
}

func TestLimitZero(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, "SELECT id FROM emp LIMIT 0")
	if len(rows) != 0 {
		t.Errorf("limit 0 rows = %v", rows)
	}
}

func TestDistinctRows(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, "SELECT DISTINCT dept FROM emp ORDER BY dept")
	if len(rows) != 3 {
		t.Errorf("distinct = %v", rows)
	}
	// Runs of five equal values straddle every batch boundary of the
	// 8/32/128/... refill sequence, and once all 100 grp values have been
	// seen whole batches are duplicates and compact to nothing.
	big := bigHarness(t)
	if rows := big.query(t, "SELECT DISTINCT k - k % 5 FROM big"); len(rows) != 1000 {
		t.Errorf("distinct runs = %d rows, want 1000", len(rows))
	}
	if rows := big.query(t, "SELECT DISTINCT grp FROM big"); len(rows) != 100 {
		t.Errorf("distinct grp = %d rows, want 100", len(rows))
	}
}

type countingSink struct{ n int }

func (c *countingSink) Observe(value.Value) { c.n++ }

func TestAuditOperatorPassThrough(t *testing.T) {
	h := newHarness(t)
	sel, _ := parser.ParseQuery("SELECT id FROM emp")
	n, err := plan.Build(&plan.Env{Catalog: h.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	// Wrap the scan in an audit operator by hand.
	proj := n.(*plan.Project)
	sink := &countingSink{}
	proj.Child = &plan.Audit{Child: proj.Child, Name: "t", IDIdx: 0, Sink: sink}
	rows, err := Run(n, NewCtx(h.store))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("audit op dropped rows: %v", rows)
	}
	if sink.n != 4 {
		t.Errorf("sink observed %d rows, want 4", sink.n)
	}
}

func TestValuesScanBinding(t *testing.T) {
	h := newHarness(t)
	env := &plan.Env{Catalog: h.cat, Extra: map[string]plan.Schema{
		"accessed": {{Qual: "ACCESSED", Name: "id", Kind: value.KindInt}},
	}}
	sel, _ := parser.ParseQuery("SELECT id FROM accessed ORDER BY id")
	n, err := plan.Build(env, sel)
	if err != nil {
		t.Fatal(err)
	}
	ctx := NewCtx(h.store)
	ctx.Extra = map[string][]value.Row{
		"accessed": {{value.NewInt(3)}, {value.NewInt(1)}},
	}
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][0].Int() != 1 {
		t.Errorf("accessed rows = %v", rows)
	}
	// Unbound relation is an error.
	ctx2 := NewCtx(h.store)
	if _, err := Run(n, ctx2); err == nil {
		t.Error("unbound transient relation should fail")
	}
}

func TestDualScan(t *testing.T) {
	h := newHarness(t)
	rows := h.query(t, "SELECT 1 + 1")
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("dual = %v", rows)
	}
}

func TestMissingTableError(t *testing.T) {
	h := newHarness(t)
	n := &plan.Scan{Table: "ghost"}
	if _, err := Run(n, NewCtx(h.store)); err == nil {
		t.Error("missing table should fail at open")
	}
}

func TestRuntimeErrorPropagates(t *testing.T) {
	h := newHarness(t)
	sel, _ := parser.ParseQuery("SELECT 1 / (sal - sal) FROM emp WHERE sal IS NOT NULL")
	n, err := plan.Build(&plan.Env{Catalog: h.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(n, NewCtx(h.store)); err == nil {
		t.Error("division by zero should propagate")
	}
}
