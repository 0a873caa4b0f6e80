package exec

import (
	"math/rand"
	"strings"
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// addTable creates and fills one more table in h.
func addTable(t *testing.T, h *harness, meta *catalog.TableMeta, rows []value.Row) {
	t.Helper()
	if err := h.cat.AddTable(meta); err != nil {
		t.Fatal(err)
	}
	tbl, err := h.store.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if _, err := tbl.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
}

// addNullable adds two tables whose join-key columns contain SQL
// NULLs, for the NULL-semantics edge cases.
func addNullable(t *testing.T, h *harness) *harness {
	t.Helper()
	addTable(t, h, &catalog.TableMeta{
		Name: "la",
		Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt},
			{Name: "x", Type: value.KindInt},
		},
	}, []value.Row{
		{value.NewInt(1), value.NewInt(10)},
		{value.NewInt(2), value.Null},
		{value.NewInt(3), value.NewInt(30)},
	})
	addTable(t, h, &catalog.TableMeta{
		Name: "rb",
		Columns: []catalog.Column{
			{Name: "x", Type: value.KindInt},
			{Name: "z", Type: value.KindInt},
		},
	}, []value.Row{
		{value.NewInt(10), value.NewInt(100)},
		{value.Null, value.NewInt(200)},
		{value.Null, value.NewInt(300)},
	})
	return h
}

func nullableHarness(t *testing.T) *harness { return addNullable(t, newHarness(t)) }

// TestHashJoinNullKeysBothSides: SQL equality is three-valued — a
// NULL key matches nothing, not even another NULL. The build side must
// drop NULL-key rows and the probe side must not look them up.
func TestHashJoinNullKeysBothSides(t *testing.T) {
	h := nullableHarness(t)
	rows := h.query(t, "SELECT la.id, rb.z FROM la, rb WHERE la.x = rb.x")
	if len(rows) != 1 || rows[0][0].Int() != 1 || rows[0][1].Int() != 100 {
		t.Errorf("inner join rows = %v, want [[1 100]]", rows)
	}
}

// TestLeftJoinNullKeyExtendsOnce: a left row with a NULL key has no
// matches, so a LEFT JOIN must emit it null-extended exactly once.
func TestLeftJoinNullKeyExtendsOnce(t *testing.T) {
	h := nullableHarness(t)
	rows := h.query(t, "SELECT la.id, rb.z FROM la LEFT JOIN rb ON la.x = rb.x ORDER BY la.id")
	if len(rows) != 3 {
		t.Fatalf("left join rows = %v, want 3 rows", rows)
	}
	// id=1 matches; id=2 (NULL key) and id=3 (no partner) null-extend.
	if rows[0][0].Int() != 1 || rows[0][1].Int() != 100 {
		t.Errorf("row 0 = %v, want [1 100]", rows[0])
	}
	for i, id := range []int64{2, 3} {
		row := rows[i+1]
		if row[0].Int() != id || !row[1].IsNull() {
			t.Errorf("row %d = %v, want [%d NULL]", i+1, row, id)
		}
	}
}

// TestLeftJoinResidualRejectsAllMatches: when the equi-keys match but
// the residual predicate rejects every candidate pair, the left row
// counts as unmatched and must be null-extended exactly once — not
// zero times, not once per rejected candidate.
func TestLeftJoinResidualRejectsAllMatches(t *testing.T) {
	h := nullableHarness(t)
	// la.x = rb.x pairs (1,100) only; residual z > 1000 rejects it.
	rows := h.query(t, "SELECT la.id, rb.z FROM la LEFT JOIN rb ON la.x = rb.x AND rb.z > 1000 ORDER BY la.id")
	if len(rows) != 3 {
		t.Fatalf("left join rows = %v, want 3 rows", rows)
	}
	for i, row := range rows {
		if row[0].Int() != int64(i+1) || !row[1].IsNull() {
			t.Errorf("row %d = %v, want [%d NULL]", i, row, i+1)
		}
	}
}

// TestLeftJoinResidualAcrossBatchBoundary: the null-extension decision
// must survive batch boundaries — a left row whose candidate matches
// are rejected near the end of one output batch must not be
// null-extended again when the next batch resumes. Both join operators
// keep that state: the hash join (equi-key match, residual rejects)
// and nested loops (no rb.z is below any la.x).
func TestLeftJoinResidualAcrossBatchBoundary(t *testing.T) {
	h := nullableHarness(t)
	for _, sql := range []string{
		"SELECT la.id, rb.z FROM la LEFT JOIN rb ON la.x = rb.x AND rb.z > 1000",
		"SELECT la.id, rb.z FROM la LEFT JOIN rb ON la.x > rb.z",
	} {
		it, err := open(mustPlan(t, h, sql), NewCtx(h.store), nil)
		if err != nil {
			t.Fatal(err)
		}
		// Pull through one-row batches to force operator state to persist
		// across the smallest possible batch boundary.
		b := NewBatch(1)
		var got []int64
		for {
			bn, err := it.NextBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if bn == 0 {
				break
			}
			for _, row := range b.Rows {
				if !row[1].IsNull() {
					t.Errorf("%s: unexpected match %v", sql, row)
				}
				got = append(got, row[0].Int())
			}
		}
		it.Close()
		if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
			t.Errorf("%s: rows = %v, want exactly one null extension per left row", sql, got)
		}
	}
}

// TestNestedLoopsFallbackNonEqui: a join with no equi-key conjunct
// must fall back to nested loops and evaluate the full condition per
// pair.
func TestNestedLoopsFallbackNonEqui(t *testing.T) {
	h := nullableHarness(t)
	rows := h.query(t, "SELECT la.id, rb.z FROM la, rb WHERE la.x < rb.z ORDER BY la.id, rb.z")
	// la.x=10 < {100,200,300}, la.x=NULL matches nothing, la.x=30 < {100,200,300}.
	want := [][2]int64{{1, 100}, {1, 200}, {1, 300}, {3, 100}, {3, 200}, {3, 300}}
	if len(rows) != len(want) {
		t.Fatalf("non-equi rows = %v, want %d rows", rows, len(want))
	}
	for i, w := range want {
		if rows[i][0].Int() != w[0] || rows[i][1].Int() != w[1] {
			t.Errorf("row %d = %v, want %v", i, rows[i], w)
		}
	}
}

// TestNestedLoopsLeftJoinNullExtension: the nested-loops path honors
// left-outer semantics too (non-equi ON condition).
func TestNestedLoopsLeftJoinNullExtension(t *testing.T) {
	h := nullableHarness(t)
	rows := h.query(t, "SELECT la.id, rb.z FROM la LEFT JOIN rb ON la.x > rb.z ORDER BY la.id")
	// No la.x exceeds any rb.z, so all three left rows null-extend once.
	if len(rows) != 3 {
		t.Fatalf("rows = %v, want 3", rows)
	}
	for i, row := range rows {
		if row[0].Int() != int64(i+1) || !row[1].IsNull() {
			t.Errorf("row %d = %v, want [%d NULL]", i, row, i+1)
		}
	}
}

// findJoin returns the first join in n (pre-order).
func findJoin(n plan.Node) *plan.Join {
	if j, ok := n.(*plan.Join); ok {
		return j
	}
	for _, c := range n.Children() {
		if j := findJoin(c); j != nil {
			return j
		}
	}
	return nil
}

// analyzed runs n once under an EXPLAIN ANALYZE collector.
func analyzed(t *testing.T, h *harness, n plan.Node) ([]value.Row, *Analyze) {
	t.Helper()
	ctx := NewCtx(h.store)
	ctx.Analyze = NewAnalyze()
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx.Analyze
}

// TestHashJoinBuildSideMatchesNestedLoops: random inner equi-joins —
// duplicate keys, NULL keys on both sides, INT keys against FLOAT keys
// (1 joins 1.0) and a residual — return exactly the multiset the
// nested-loops operator returns for the same condition written without
// an equality, whichever input is the smaller and gets built.
func TestHashJoinBuildSideMatchesNestedLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	builtLeft, builtRight, pairs := 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		h := newHarness(t)
		key := func(float bool) value.Value {
			switch k := rng.Intn(7); {
			case k == 6:
				return value.Null
			case float && rng.Intn(5) == 0:
				return value.NewFloat(float64(k) + 0.5)
			case float:
				return value.NewFloat(float64(k))
			default:
				return value.NewInt(int64(k))
			}
		}
		side := func(name, keyCol, valCol string, float bool) {
			kind := value.KindInt
			if float {
				kind = value.KindFloat
			}
			rows := make([]value.Row, rng.Intn(40))
			for i := range rows {
				v := value.NewInt(int64(rng.Intn(10)))
				if rng.Intn(8) == 0 {
					v = value.Null
				}
				rows[i] = value.Row{key(float), v}
			}
			addTable(t, h, &catalog.TableMeta{Name: name, Columns: []catalog.Column{
				{Name: keyCol, Type: kind}, {Name: valCol, Type: value.KindInt},
			}}, rows)
		}
		side("jl", "lk", "a", rng.Intn(2) == 0)
		side("jr", "rk", "b", rng.Intn(2) == 0)

		hash := mustPlan(t, h, "SELECT lk, a, rk, b FROM jl, jr WHERE lk = rk AND a < b")
		j := findJoin(hash)
		if j == nil || len(j.LeftKeys) == 0 {
			t.Fatalf("trial %d: no hash join in\n%s", trial, plan.Explain(hash))
		}
		nl := mustPlan(t, h, "SELECT lk, a, rk, b FROM jl, jr WHERE lk <= rk AND lk >= rk AND a < b")
		if j := findJoin(nl); j == nil || len(j.LeftKeys) != 0 {
			t.Fatalf("trial %d: reference is not a nested-loops join", trial)
		}
		got, az := analyzed(t, h, hash)
		want, err := Run(nl, NewCtx(h.store))
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(canon(got), canon(want)) {
			t.Fatalf("trial %d: hash join returned %d rows, nested loops %d", trial, len(got), len(want))
		}
		pairs += len(got)
		if az.Stats(j).BuildLeft > 0 {
			builtLeft++
		} else {
			builtRight++
		}
	}
	if builtLeft == 0 || builtRight == 0 || pairs == 0 {
		t.Fatalf("built left %d times, right %d times, %d pairs: both sides must be exercised", builtLeft, builtRight, pairs)
	}
}

// TestAnalyzeBuildSide: EXPLAIN ANALYZE names a join that built its
// left input and says nothing for the usual right build, and its
// time= covers the build it did in reset — a join whose build side is
// a big scan reports at least that scan's time.
func TestAnalyzeBuildSide(t *testing.T) {
	h := conformanceHarness(t)
	joinLine := func(text string) string {
		for _, line := range strings.Split(text, "\n") {
			if strings.Contains(line, "Join(") {
				return line
			}
		}
		t.Fatalf("no join in\n%s", text)
		return ""
	}
	for _, c := range []struct {
		sql  string
		left bool
	}{
		{"SELECT e.dept, b.k FROM emp e, big b WHERE e.id = b.grp", true},
		{"SELECT e.dept, b.k FROM big b, emp e WHERE e.id = b.grp", false},
		{"SELECT e.dept, b.k FROM emp e LEFT JOIN big b ON e.id = b.grp", false},
	} {
		n := mustPlan(t, h, c.sql)
		_, az := analyzed(t, h, n)
		line := joinLine(RenderAnalyze(n, az))
		if strings.Contains(line, "build=left") != c.left {
			t.Errorf("%s: build=left printed %v, want %v:\n%s", c.sql, !c.left, c.left, line)
		}
		if !c.left && strings.Contains(line, "build=") {
			t.Errorf("%s: a right build printed a build side:\n%s", c.sql, line)
		}
	}

	// The left input is one index lookup; the right one, built in
	// reset, scans all of big.
	n := mustPlan(t, h, "SELECT b1.k, b2.v FROM big b1 LEFT JOIN big b2 ON b1.grp = b2.grp WHERE b1.k = 5")
	j := findJoin(n)
	_, az := analyzed(t, h, n)
	join, build := az.Stats(j), az.Stats(j.Right)
	if build.RowsOut != 5000 {
		t.Fatalf("build side emitted %d rows, want 5000", build.RowsOut)
	}
	if join.Wall < build.Wall {
		t.Errorf("join time %v < its build side's %v: the build in reset is unclocked", join.Wall, build.Wall)
	}
}
