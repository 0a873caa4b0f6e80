package opt

import (
	"strings"
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/exec"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	add := func(name string, cols ...catalog.Column) {
		if err := cat.AddTable(&catalog.TableMeta{Name: name, Columns: cols}); err != nil {
			t.Fatal(err)
		}
	}
	add("a",
		catalog.Column{Name: "id", Type: value.KindInt},
		catalog.Column{Name: "x", Type: value.KindInt},
	)
	add("b",
		catalog.Column{Name: "id", Type: value.KindInt},
		catalog.Column{Name: "y", Type: value.KindInt},
	)
	return cat
}

func optimized(t *testing.T, cat *catalog.Catalog, sql string) plan.Node {
	t.Helper()
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(&plan.Env{Catalog: cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	return Optimize(n)
}

func findJoin(n plan.Node) *plan.Join {
	var j *plan.Join
	plan.Walk(n, func(x plan.Node) {
		if jj, ok := x.(*plan.Join); ok && j == nil {
			j = jj
		}
	})
	return j
}

func findScans(n plan.Node) []*plan.Scan {
	var out []*plan.Scan
	plan.Walk(n, func(x plan.Node) {
		if s, ok := x.(*plan.Scan); ok {
			out = append(out, s)
		}
	})
	return out
}

func TestPushdownIntoScan(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, "SELECT x FROM a WHERE x > 3 AND id = 1")
	// Both conjuncts land in the scan; no Filter survives.
	hasFilter := false
	plan.Walk(n, func(x plan.Node) {
		if _, ok := x.(*plan.Filter); ok {
			hasFilter = true
		}
	})
	if hasFilter {
		t.Errorf("filter should be fully pushed:\n%s", plan.Explain(n))
	}
	scans := findScans(n)
	if len(scans) != 1 || scans[0].Pushed == nil {
		t.Fatalf("scan predicate missing:\n%s", plan.Explain(n))
	}
}

func TestCommaJoinBecomesInnerHashJoin(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, "SELECT * FROM a, b WHERE a.id = b.id AND a.x > 1")
	j := findJoin(n)
	if j == nil || j.Kind != plan.JoinInner {
		t.Fatalf("join = %+v\n%s", j, plan.Explain(n))
	}
	if len(j.LeftKeys) != 1 || len(j.RightKeys) != 1 {
		t.Errorf("equi keys not extracted: %+v", j)
	}
	// The single-side predicate went into a's scan.
	for _, s := range findScans(n) {
		if s.Table == "a" && s.Pushed == nil {
			t.Errorf("a.x > 1 not pushed into scan:\n%s", plan.Explain(n))
		}
	}
}

func TestNonEquiJoinResidual(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, "SELECT * FROM a JOIN b ON a.id = b.id AND a.x < b.y")
	j := findJoin(n)
	if len(j.LeftKeys) != 1 {
		t.Fatalf("equi key missing: %+v", j)
	}
	if j.Residual == nil {
		t.Errorf("non-equi conjunct should stay as residual: %+v", j)
	}
}

func TestPureNonEquiJoinKeepsCond(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, "SELECT * FROM a JOIN b ON a.x < b.y")
	j := findJoin(n)
	if len(j.LeftKeys) != 0 || j.Cond == nil {
		t.Errorf("nested-loops join misconfigured: %+v", j)
	}
}

func TestLeftJoinRightPredicateNotPushed(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, `SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE b.y > 5`)
	// b.y > 5 over the join output must NOT be pushed into b's scan
	// (it would change null-extension); it stays as a filter above.
	hasFilter := false
	plan.Walk(n, func(x plan.Node) {
		if _, ok := x.(*plan.Filter); ok {
			hasFilter = true
		}
	})
	if !hasFilter {
		t.Errorf("where-filter over left join must survive:\n%s", plan.Explain(n))
	}
	for _, s := range findScans(n) {
		if s.Table == "b" && s.Pushed != nil {
			t.Errorf("predicate wrongly pushed into null-supplying side:\n%s", plan.Explain(n))
		}
	}
}

func TestLeftJoinLeftPredicatePushed(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, `SELECT * FROM a LEFT JOIN b ON a.id = b.id WHERE a.x > 5`)
	for _, s := range findScans(n) {
		if s.Table == "a" && s.Pushed == nil {
			t.Errorf("preserved-side predicate should push:\n%s", plan.Explain(n))
		}
	}
}

func TestConstantFolding(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, "SELECT x FROM a WHERE 1 = 1 AND x > 2")
	s := plan.Explain(n)
	if strings.Contains(s, "1 = 1") {
		t.Errorf("constant conjunct not folded:\n%s", s)
	}
}

func TestAuditNodeBlocksPushdown(t *testing.T) {
	cat := testCatalog(t)
	sel, err := parser.ParseQuery("SELECT x FROM a WHERE x > 3")
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(&plan.Env{Catalog: cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	// Hand-insert an audit operator between filter and scan, then
	// optimize: the predicate must stop above the audit operator.
	proj := n.(*plan.Project)
	filter := proj.Child.(*plan.Filter)
	scan := filter.Child
	filter.Child = &plan.Audit{Child: scan, Name: "X", IDIdx: 0, Sink: nopSink{}}
	out := Optimize(n)
	s := plan.Explain(out)
	// Predicate must not appear inside the Scan label.
	for _, sc := range findScans(out) {
		if sc.Pushed != nil {
			t.Errorf("predicate crossed the audit operator:\n%s", s)
		}
	}
	if !strings.Contains(s, "Audit(") {
		t.Errorf("audit operator lost:\n%s", s)
	}
}

type nopSink struct{}

func (nopSink) ObserveBatch([]value.Value) int { return 0 }
func (nopSink) Fork() plan.WorkerAuditSink     { return nopFork{} }

type nopFork struct{ nopSink }

func (nopFork) Merge() {}

func TestOptimizerPreservesResultsProperty(t *testing.T) {
	// Optimization must never change results: checked end-to-end in
	// engine tests; here we check plan schemas are preserved.
	cat := testCatalog(t)
	queries := []string{
		"SELECT x FROM a WHERE x > 1",
		"SELECT * FROM a, b WHERE a.id = b.id",
		"SELECT a.x, b.y FROM a LEFT JOIN b ON a.id = b.id WHERE a.x > 0",
	}
	for _, q := range queries {
		sel, err := parser.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		n, err := plan.Build(&plan.Env{Catalog: cat}, sel)
		if err != nil {
			t.Fatal(err)
		}
		before := len(n.Schema())
		after := len(Optimize(n).Schema())
		if before != after {
			t.Errorf("%q: schema width changed %d -> %d", q, before, after)
		}
	}
}

func TestSubqueryPlansOptimized(t *testing.T) {
	cat := testCatalog(t)
	n := optimized(t, cat, `SELECT x FROM a WHERE id IN (SELECT id FROM b WHERE y > 2 AND y < 10)`)
	optimizedSub := false
	plan.Subplans(n, func(sq *plan.Subquery) {
		plan.Walk(sq.Plan, func(x plan.Node) {
			if s, ok := x.(*plan.Scan); ok && s.Pushed != nil {
				optimizedSub = true
			}
		})
	})
	if !optimizedSub {
		t.Errorf("subquery predicates not pushed:\n%s", plan.Explain(n))
	}
}

func TestPushdownShiftsComplexExprsToRightSide(t *testing.T) {
	cat := testCatalog(t)
	// Every conjunct references only b (the right side), so each must
	// be shifted and pushed into b's scan — covering shiftCols over
	// Between, InList, Case, Func, IsNull, Like and Concat nodes.
	n := optimized(t, cat, `SELECT * FROM a, b WHERE a.id = b.id
		AND b.y BETWEEN 1 AND 9
		AND b.y IN (1, 2, 3, 4, 5)
		AND CASE WHEN b.y > 2 THEN 1 ELSE 0 END = 1
		AND ABS(b.y) >= 0
		AND b.y IS NOT NULL`)
	for _, s := range findScans(n) {
		if s.Table == "b" && s.Pushed == nil {
			t.Fatalf("right-side conjuncts not pushed:\n%s", plan.Explain(n))
		}
	}
	// And no residual filter should remain above the join.
	plan.Walk(n, func(x plan.Node) {
		if _, ok := x.(*plan.Filter); ok {
			t.Errorf("filter survived full pushdown:\n%s", plan.Explain(n))
		}
	})
}

func TestPushdownExecutesCorrectly(t *testing.T) {
	// The shifted predicates must still evaluate correctly: build a
	// tiny store and compare against unoptimized execution semantics.
	cat := testCatalog(t)
	store := storage.NewStore()
	for _, meta := range cat.Tables() {
		tbl, err := store.Create(meta)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(1); i <= 6; i++ {
			if _, err := tbl.Insert(value.Row{value.NewInt(i), value.NewInt(i * 10)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sql := `SELECT a.id FROM a, b WHERE a.id = b.id AND b.y BETWEEN 20 AND 40 AND b.y IN (20, 40)`
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	build := func() plan.Node {
		n, err := plan.Build(&plan.Env{Catalog: cat}, sel)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	plainRows, err := exec.Run(build(), exec.NewCtx(store))
	if err != nil {
		t.Fatal(err)
	}
	optRows, err := exec.Run(Optimize(build()), exec.NewCtx(store))
	if err != nil {
		t.Fatal(err)
	}
	if len(plainRows) != len(optRows) || len(optRows) != 2 {
		t.Fatalf("optimization changed results: %v vs %v", plainRows, optRows)
	}
}

func TestFoldFalseConjunctKept(t *testing.T) {
	cat := testCatalog(t)
	// A provably-false conjunct is not folded away (we only fold
	// TRUE); the query must still return nothing rather than error.
	n := optimized(t, cat, "SELECT x FROM a WHERE 1 = 2")
	s := plan.Explain(n)
	if !strings.Contains(s, "false") && !strings.Contains(s, "(1 = 2)") {
		t.Errorf("false predicate lost:\n%s", s)
	}
}
