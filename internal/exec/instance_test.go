package exec

import (
	"reflect"
	"testing"

	"auditdb/internal/value"
)

// TestInstanceIdlePinsNoRows: when a run ends, every buffer an instance
// keeps — batches, scan and audit scratch, result scratch, build
// tables, group and sort state — holds no row or value, and every kept
// batch is back at the seed ceiling. So an idle cached plan pins no
// data, and its next run's requests grow exactly as a fresh tree's.
func TestInstanceIdlePinsNoRows(t *testing.T) {
	h := conformanceHarness(t)
	for _, sql := range []string{
		"SELECT b.k, e.dept FROM big b, emp e WHERE b.grp = e.id ORDER BY b.v",
		"SELECT e.id, la.id FROM emp e LEFT JOIN la ON e.sal > la.x * 6",
		"SELECT grp, COUNT(*), MAX(v) FROM big WHERE k < 3000 GROUP BY grp",
		"SELECT MIN(v), COUNT(*) FROM big WHERE grp = 7",
		"SELECT DISTINCT k - k % 5 FROM big WHERE grp < 9",
	} {
		in := NewInstance(mustPlan(t, h, sql), NewCtx(h.store))
		for run := 0; run < 2; run++ {
			rows, err := in.Run()
			if err != nil || len(rows) == 0 {
				t.Fatalf("%s: %d rows, %v", sql, len(rows), err)
			}
			if in.rows == nil && len(rows) <= keepRows {
				t.Fatalf("%s: result scratch dropped for a small result", sql)
			}
			checkIdle(t, sql, reflect.ValueOf(in), map[uintptr]bool{})
		}
	}
}

var (
	rowType   = reflect.TypeOf(value.Row(nil))
	valueType = reflect.TypeOf(value.Value{})
	batchType = reflect.TypeOf(Batch{})
	ctxType   = reflect.TypeOf(&Ctx{})
	execPkg   = batchType.PkgPath()
)

// checkIdle walks the operator structs reachable from v (this
// package's types only: not the context, the plan or storage) and
// fails on any row or non-zero value held in a kept buffer, up to its
// capacity, and on any batch whose ceiling is past the seed.
func checkIdle(t *testing.T, sql string, v reflect.Value, seen map[uintptr]bool) {
	t.Helper()
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() || v.Type() == ctxType || v.Type().Elem().PkgPath() != execPkg || seen[v.Pointer()] {
			return
		}
		seen[v.Pointer()] = true
		checkIdle(t, sql, v.Elem(), seen)
	case reflect.Interface:
		if !v.IsNil() {
			checkIdle(t, sql, v.Elem(), seen)
		}
	case reflect.Struct:
		if v.Type().PkgPath() != execPkg {
			return
		}
		if v.Type() == batchType {
			if buf := v.FieldByName("buf"); buf.Len() > batchSeed {
				t.Errorf("%s: a kept batch's ceiling is %d after the run, want <= %d", sql, buf.Len(), batchSeed)
			}
		}
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == valueType && !f.IsZero() {
				t.Errorf("%s: %s.%s still holds %v after the run", sql, v.Type(), v.Type().Field(i).Name, f)
			} else {
				checkIdle(t, sql, f, seen)
			}
		}
	case reflect.Array, reflect.Slice:
		if v.Kind() == reflect.Slice {
			v = v.Slice(0, v.Cap())
		}
		for i := 0; i < v.Len(); i++ {
			e := v.Index(i)
			switch {
			case e.Type() == rowType && e.Len() > 0, e.Type() == valueType && !e.IsZero():
				t.Errorf("%s: a %s kept after the run still holds %v", sql, v.Type(), e)
				return
			}
			checkIdle(t, sql, e, seen)
		}
	case reflect.Map:
		if v.Len() > 0 && v.Type().Elem().Kind() == reflect.Pointer && v.Type().Elem().Elem().PkgPath() == execPkg {
			t.Errorf("%s: a %s kept after the run has %d entries", sql, v.Type(), v.Len())
		}
	}
}
