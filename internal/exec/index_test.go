package exec

import (
	"testing"

	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

func TestIndexAssistedScanByPK(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.store.Table("emp")
	_ = tbl
	// emp has no declared pk in newHarness; use dept via secondary.
	rows := h.query(t, "SELECT id FROM emp WHERE id = 3")
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("rows = %v", rows)
	}
}

func TestIndexAssistedScanSecondary(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.store.Table("emp")
	if err := tbl.AddIndex("by_dept", []int{1}); err != nil {
		t.Fatal(err)
	}
	rows := h.query(t, "SELECT id FROM emp WHERE dept = 'eng' ORDER BY id")
	if len(rows) != 2 || rows[0][0].Int() != 1 || rows[1][0].Int() != 2 {
		t.Errorf("indexed scan rows = %v", rows)
	}
	// Residual predicates still apply on top of the index fetch.
	rows = h.query(t, "SELECT id FROM emp WHERE dept = 'eng' AND sal > 150")
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("residual rows = %v", rows)
	}
}

func TestIndexedScanHonorsMask(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.store.Table("emp")
	if err := tbl.AddIndex("by_dept", []int{1}); err != nil {
		t.Fatal(err)
	}
	sel := "SELECT id FROM emp WHERE dept = 'eng'"
	n := buildFor(t, h, sel)
	ctx := NewCtx(h.store)
	mask := storage.NewMask()
	mask.Hide("emp", 0) // employee 1
	ctx.Mask = mask
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2 {
		t.Errorf("masked indexed scan = %v", rows)
	}
}

func buildFor(t *testing.T, h *harness, sql string) plan.Node {
	t.Helper()
	n := mustPlan(t, h, sql)
	return n
}

func TestLookupEqMissingIndex(t *testing.T) {
	h := newHarness(t)
	tbl, _ := h.store.Table("emp")
	if _, ok := tbl.LookupEq(1, value.NewString("eng"), nil); ok {
		t.Error("no index on dept yet; LookupEq must report unusable")
	}
	if err := tbl.AddIndex("by_dept", []int{1}); err != nil {
		t.Fatal(err)
	}
	ids, ok := tbl.LookupEq(1, value.NewString("eng"), nil)
	if !ok || len(ids) != 2 {
		t.Errorf("LookupEq = %v, %v", ids, ok)
	}
	// Missing key: usable index, zero rows.
	ids, ok = tbl.LookupEq(1, value.NewString("nope"), nil)
	if !ok || len(ids) != 0 {
		t.Errorf("LookupEq(miss) = %v, %v", ids, ok)
	}
}

func TestIndexProbeWithParam(t *testing.T) {
	// Prepared-statement parameters are row-independent, so `col = ?`
	// must take the index path and still return correct rows.
	h := newHarness(t)
	tbl, _ := h.store.Table("emp")
	if err := tbl.AddIndex("by_dept", []int{1}); err != nil {
		t.Fatal(err)
	}
	n := mustPlan(t, h, "SELECT id FROM emp WHERE dept = ?")
	// Simulate a prepared run: bind the parameter.
	ctx := NewCtx(h.store)
	ctx.Eval.Params = []value.Value{value.NewString("ops")}
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 3 {
		t.Errorf("rows = %v", rows)
	}
	// Rebinding returns different rows from the same plan.
	ctx2 := NewCtx(h.store)
	ctx2.Eval.Params = []value.Value{value.NewString("eng")}
	rows, err = Run(n, ctx2)
	if err != nil || len(rows) != 2 {
		t.Errorf("rebind rows = %v, %v", rows, err)
	}
}
