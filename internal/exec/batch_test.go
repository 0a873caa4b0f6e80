package exec

import (
	"fmt"
	"runtime"
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// bigHarness extends the standard harness with a 5000-row table so
// bounded-work and allocation tests can tell O(1)/O(batch) behavior
// apart from O(table).
func bigHarness(t *testing.T) *harness {
	t.Helper()
	h := newHarness(t)
	meta := &catalog.TableMeta{
		Name: "big",
		Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "grp", Type: value.KindInt},
			{Name: "v", Type: value.KindString},
		},
		PrimaryKey: []int{0},
	}
	if err := h.cat.AddTable(meta); err != nil {
		t.Fatal(err)
	}
	tbl, err := h.store.Create(meta)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		row := value.Row{value.NewInt(int64(i)), value.NewInt(int64(i % 100)), value.NewString(fmt.Sprintf("v%d", i))}
		if _, err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// TestLimitScanStreamsBoundedWork is the regression test for the old
// openScan behavior of materializing the whole heap before the first
// row: a LIMIT 1 over a 5000-row table must touch no more than one
// seed batch of storage rows — also through DISTINCT, which passes the
// request ceiling down like a filter.
func TestLimitScanStreamsBoundedWork(t *testing.T) {
	h := bigHarness(t)
	for _, sql := range []string{"SELECT k FROM big LIMIT 1", "SELECT DISTINCT grp FROM big LIMIT 1"} {
		in := NewInstance(mustPlan(t, h, sql), NewCtx(h.store))
		rows, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 1 {
			t.Fatalf("%s: rows = %d, want 1", sql, len(rows))
		}
		if scanned := in.Totals().RowsScanned; scanned > batchSeed {
			t.Errorf("%s scanned %d storage rows, want <= %d (one seed batch)", sql, scanned, batchSeed)
		}
	}
}

// TestLimitWithPredicateStreamsBoundedWork: the fused scan–filter
// kernel must also stop early when a LIMIT is satisfied mid-table,
// reading only as many storage rows as needed to fill the request.
func TestLimitWithPredicateStreamsBoundedWork(t *testing.T) {
	h := bigHarness(t)
	// grp = 7 matches every 100th row; LIMIT 2 is satisfied after ~108
	// heap rows. Allow request-granularity slack, but far below 5000.
	in := NewInstance(mustPlan(t, h, "SELECT k FROM big WHERE grp = 7 LIMIT 2"), NewCtx(h.store))
	rows, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rows))
	}
	if scanned := in.Totals().RowsScanned; scanned >= 5000 {
		t.Errorf("LIMIT 2 walked the whole heap (%d rows scanned)", scanned)
	}
}

// TestPointLookupProbesOnlyIndexResult: on the index-assisted path the
// kernel must fetch exactly the candidate row IDs, not the table.
func TestPointLookupProbesOnlyIndexResult(t *testing.T) {
	h := bigHarness(t)
	in := NewInstance(mustPlan(t, h, "SELECT v FROM big WHERE k = 17"), NewCtx(h.store))
	rows, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].S != "v17" {
		t.Fatalf("rows = %v", rows)
	}
	if scanned := in.Totals().RowsScanned; scanned != 1 {
		t.Errorf("point lookup scanned %d storage rows, want 1", scanned)
	}
}

// countingBatchSink implements plan.AuditSink for fused-kernel tests
// without importing internal/core (which itself imports exec). It is
// never forked: the tests that use it run serially.
type countingBatchSink struct {
	batches int // ObserveBatch calls
	vals    []value.Value
}

func (s *countingBatchSink) ObserveBatch(vs []value.Value) int {
	s.batches++
	s.vals = append(s.vals, vs...)
	return 0
}

func (s *countingBatchSink) Fork() plan.WorkerAuditSink {
	panic("countingBatchSink: serial tests only")
}

// TestFusedAuditScanObservesPostPredicateRows: the fused kernel must
// deliver exactly the predicate-surviving partition-by values to the
// sink, batched (far fewer ObserveBatch calls than values).
func TestFusedAuditScanObservesPostPredicateRows(t *testing.T) {
	h := bigHarness(t)
	scan := mustPlan(t, h, "SELECT k, grp, v FROM big WHERE grp < 2")
	// Locate the Scan under the optimizer output and wrap it in a
	// leaf Audit with partition-by column k.
	var wrap func(n plan.Node) plan.Node
	sink := &countingBatchSink{}
	wrap = func(n plan.Node) plan.Node {
		if s, ok := n.(*plan.Scan); ok {
			return &plan.Audit{Child: s, IDIdx: 0, Sink: sink}
		}
		for i, c := range n.Children() {
			n.SetChild(i, wrap(c))
		}
		return n
	}
	in := NewInstance(wrap(scan), NewCtx(h.store))
	rows, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 { // grp in {0,1}: 50 rows each
		t.Fatalf("rows = %d, want 100", len(rows))
	}
	if len(sink.vals) != 100 {
		t.Errorf("sink observed %d values, want 100 (post-predicate rows only)", len(sink.vals))
	}
	elided := in.Totals().ChunksSkippedAudit
	if sink.batches == 0 || sink.batches >= len(sink.vals) || elided != 0 {
		t.Errorf("fused kernel probed %d values in %d calls (%d chunks elided), want batched, none elided", len(sink.vals), sink.batches, elided)
	}
}

// TestScanKernelAllocsPerRun guards the allocation-lean fused scan
// path: executing a full-table scan+filter+aggregate over 5000 rows
// must cost a bounded number of allocations (batch buffers and plan
// state), not O(rows).
func TestScanKernelAllocsPerRun(t *testing.T) {
	h := bigHarness(t)
	n := mustPlan(t, h, "SELECT COUNT(*) FROM big WHERE grp < 50")
	// Warm up and verify the result once.
	rows, err := Run(n, NewCtx(h.store))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0][0].Int() != 2500 {
		t.Fatalf("rows = %v, want [[2500]]", rows)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewInstance(n, NewCtx(h.store)).Drain(); err != nil {
			t.Fatal(err)
		}
	})
	// Seed-to-full batch growth plus iterator state is ~40 allocations;
	// anything near the row count means a per-row allocation crept in.
	if allocs > 100 {
		t.Errorf("scan kernel allocations per run = %.0f, want <= 100", allocs)
	}
}

// TestHashJoinProbeAllocsPerRun guards the join fast path: probing
// 5000 left rows against a built hash table must not allocate per row
// (reusable key buffer, slab-carved output pairs), and the pair slabs
// must be sized by the pending matches, growing only while a batch
// keeps draining them — not by the room left in the batch, which made
// a 200-pair join allocate for 680 pairs (~290 KB per run).
func TestHashJoinProbeAllocsPerRun(t *testing.T) {
	h := bigHarness(t)
	n := mustPlan(t, h, "SELECT COUNT(*) FROM big b, emp e WHERE b.grp = e.id")
	rows, err := Run(n, NewCtx(h.store))
	if err != nil {
		t.Fatal(err)
	}
	// emp ids 1..4 each match 50 "big" rows.
	if len(rows) != 1 || rows[0][0].Int() != 200 {
		t.Fatalf("rows = %v, want [[200]]", rows)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewInstance(n, NewCtx(h.store)).Drain(); err != nil {
			t.Fatal(err)
		}
	})
	// Build table (4 buckets) + batch growth + O(log n) pair slabs per
	// batch stay double-digit; per-probe-row allocation would be 5000+.
	if allocs > 150 {
		t.Errorf("hash join allocations per run = %.0f, want <= 150", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := NewInstance(n, NewCtx(h.store)).Drain(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	// ~185 KB measured (scan buffers, batches, build table, ~230 pairs
	// of slab), plus 25 %.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 230<<10 {
		t.Errorf("hash join allocates %d bytes per run, want <= %d", perRun, 230<<10)
	}
}

// TestKeyTableAllocsPerRun guards the key table's reuse in GROUP BY,
// aggregate DISTINCT and SELECT DISTINCT: a warm instance rerun over
// 5000 rows with 100 distinct keys allocates per group at most, never
// per row. Encoding each argument before its duplicate check made
// COUNT(DISTINCT grp) allocate once per row (5,013 allocations per run).
func TestKeyTableAllocsPerRun(t *testing.T) {
	h := bigHarness(t)
	for _, c := range []struct {
		sql    string
		rows   int
		budget float64
	}{
		{"SELECT COUNT(DISTINCT grp) FROM big", 1, 200},
		{"SELECT grp, COUNT(*) FROM big GROUP BY grp", 100, 404},
		{"SELECT DISTINCT grp FROM big", 100, 141},
	} {
		in := NewInstance(mustPlan(t, h, c.sql), NewCtx(h.store))
		rows, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != c.rows || c.rows == 1 && rows[0][0].Int() != 100 {
			t.Fatalf("%s: rows = %v", c.sql, rows)
		}
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := in.Drain(); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s: %.0f allocations per run", c.sql, allocs)
		if allocs > c.budget {
			t.Errorf("%s: %.0f allocations per run, want <= %.0f", c.sql, allocs, c.budget)
		}
	}
}

// TestRunIDsCarriesRowIDs: RunIDs returns Run's rows, in Run's order,
// each beside the RowID it was read from — on the heap path across
// growing batches, on the index path, through a filter the optimizer
// could not push into the scan and under a mask — and refuses a plan
// whose operators do not carry the lane.
func TestRunIDsCarriesRowIDs(t *testing.T) {
	h := bigHarness(t)
	tbl, _ := h.store.Table("big")
	if err := tbl.AddIndex("by_grp", []int{1}); err != nil {
		t.Fatal(err)
	}
	// Holes in the heap, and a key whose index entries are out of RowID
	// order.
	for _, id := range []storage.RowID{5, 6, 300, 4999} {
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	moved, _ := tbl.Get(3)
	row := append(value.Row(nil), moved...)
	row[1] = value.NewInt(7)
	if _, err := tbl.Update(3, row); err != nil {
		t.Fatal(err)
	}
	mask := storage.NewMask()
	mask.Hide("big", 1000)
	for _, c := range []struct {
		sql  string
		mask *storage.Mask
	}{
		{"SELECT * FROM big WHERE grp < 50", nil},
		{"SELECT k, k * 2 FROM big WHERE grp = 7", nil},
		{"SELECT * FROM big b WHERE EXISTS (SELECT 1 FROM big c WHERE c.k = b.k AND c.grp < 20)", nil},
		{"SELECT k FROM big", mask},
	} {
		n := mustPlan(t, h, c.sql)
		ctx := NewCtx(h.store)
		ctx.Mask = c.mask
		want, err := Run(n, ctx)
		if err != nil {
			t.Fatal(err)
		}
		rows, ids, err := NewInstance(n, ctx).RunIDs()
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if len(rows) != len(want) || len(ids) != len(rows) || len(rows) == 0 {
			t.Fatalf("%s: %d rows and %d IDs, Run returned %d rows", c.sql, len(rows), len(ids), len(want))
		}
		for i, r := range rows {
			stored, ok := tbl.Get(ids[i])
			if !ok || r[0].Int() != stored[0].Int() || r[0].Int() != want[i][0].Int() {
				t.Fatalf("%s: row %d = %v with RowID %d (stored %v), Run's row %v", c.sql, i, r, ids[i], stored, want[i])
			}
		}
	}
	if _, _, err := NewInstance(mustPlan(t, h, "SELECT * FROM big, dept WHERE big.v = dept.name"), NewCtx(h.store)).RunIDs(); err == nil {
		t.Error("RunIDs accepted a join")
	}
}
