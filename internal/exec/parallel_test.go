package exec

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"auditdb/internal/opt"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// parallelPlan plans sql and rewrites it for parallel execution with
// the threshold forced down so the 5000-row fixture qualifies.
func parallelPlan(t *testing.T, h *harness, sql string, workers int) plan.Node {
	t.Helper()
	n := mustPlan(t, h, sql)
	est := func(table string) int64 {
		tbl, ok := h.store.Table(table)
		if !ok {
			return 0
		}
		return int64(tbl.Len())
	}
	return opt.Parallelize(n, est, workers, 1)
}

func runWorkers(t *testing.T, h *harness, n plan.Node, workers int) ([]value.Row, *Ctx) {
	t.Helper()
	ctx := NewCtx(h.store)
	ctx.Workers = workers
	rows, err := Run(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	return rows, ctx
}

// canon renders rows as sorted strings: a Gather exchange does not
// preserve row order (only an explicit Sort does), so result
// comparisons are set-based.
func canon(rows []value.Row) []string {
	out := rowKeys(rows)
	sort.Strings(out)
	return out
}

func sameRows(t *testing.T, label string, serial, par []value.Row) {
	t.Helper()
	s, p := canon(serial), canon(par)
	if len(s) != len(p) {
		t.Fatalf("%s: row count %d, serial %d", label, len(p), len(s))
	}
	for i := range s {
		if s[i] != p[i] {
			t.Fatalf("%s: row multiset diverges at %d", label, i)
		}
	}
}

// TestParallelScanMatchesSerial: a morsel-driven scan+filter must
// produce the serial row multiset at every worker count.
func TestParallelScanMatchesSerial(t *testing.T) {
	h := bigHarness(t)
	const sql = "SELECT k, v FROM big WHERE grp < 37"
	serial := h.query(t, sql)
	if len(serial) != 37*50 {
		t.Fatalf("serial rows = %d, want %d", len(serial), 37*50)
	}
	for _, workers := range []int{1, 2, 8} {
		n := parallelPlan(t, h, sql, workers)
		if workers >= 2 {
			if _, ok := n.(*plan.Gather); !ok {
				t.Fatalf("workers=%d: plan root is %T, want *plan.Gather", workers, n)
			}
		}
		rows, ctx := runWorkers(t, h, n, workers)
		sameRows(t, fmt.Sprintf("workers=%d", workers), serial, rows)
		if workers >= 2 && ctx.Stats.MorselsClaimed.Load() == 0 {
			t.Errorf("workers=%d: no morsels claimed on a parallel scan", workers)
		}
		if got := ctx.Stats.RowsScanned.Load(); got != 5000 {
			t.Errorf("workers=%d: rows scanned = %d, want 5000", workers, got)
		}
	}
}

// TestParallelStatsCountersRaceFree is the regression test for the
// shared-Ctx counters: every worker of a Gather adds to
// Stats.RowsScanned and Stats.MorselsClaimed concurrently, so plain
// int64 fields would be flagged by `go test -race` here (and would
// drop updates in production). Many parallel queries back to back give
// the race detector scheduling variety.
func TestParallelStatsCountersRaceFree(t *testing.T) {
	h := bigHarness(t)
	n := parallelPlan(t, h, "SELECT k FROM big WHERE grp < 80", 8)
	for i := 0; i < 10; i++ {
		_, ctx := runWorkers(t, h, n, 8)
		if got := ctx.Stats.RowsScanned.Load(); got != 5000 {
			t.Fatalf("run %d: rows scanned = %d, want 5000 (lost update?)", i, got)
		}
	}
}

// TestParallelJoinMatchesSerial: the partitioned parallel hash join
// must produce the serial multiset — build once, probe per worker.
func TestParallelJoinMatchesSerial(t *testing.T) {
	h := bigHarness(t)
	const sql = "SELECT b.k, e.dept FROM big b, emp e WHERE b.grp = e.id"
	serial := h.query(t, sql)
	if len(serial) != 200 { // emp ids 1..4 each match 50 big rows
		t.Fatalf("serial rows = %d, want 200", len(serial))
	}
	for _, workers := range []int{2, 8} {
		n := parallelPlan(t, h, sql, workers)
		rows, _ := runWorkers(t, h, n, workers)
		sameRows(t, fmt.Sprintf("join workers=%d", workers), serial, rows)
	}
}

// TestParallelAggregateMatchesSerial: two-phase aggregation (per-worker
// partials merged at close) must equal serial hash aggregation exactly,
// including emission order — both paths emit in sorted key order.
func TestParallelAggregateMatchesSerial(t *testing.T) {
	h := bigHarness(t)
	const sql = "SELECT grp, COUNT(*), SUM(k), MIN(k), MAX(k) FROM big GROUP BY grp"
	serial := h.query(t, sql)
	if len(serial) != 100 {
		t.Fatalf("serial groups = %d, want 100", len(serial))
	}
	for _, workers := range []int{2, 8} {
		n := parallelPlan(t, h, sql, workers)
		rows, _ := runWorkers(t, h, n, workers)
		if len(rows) != len(serial) {
			t.Fatalf("workers=%d: groups = %d, want %d", workers, len(rows), len(serial))
		}
		// Aggregates are pipeline breakers above the exchange: emission
		// order itself must match, not just the multiset.
		for i := range serial {
			for j := range serial[i] {
				if value.Compare(serial[i][j], rows[i][j]) != 0 {
					t.Fatalf("workers=%d: row %d col %d = %v, want %v",
						workers, i, j, rows[i][j], serial[i][j])
				}
			}
		}
	}
}

// forkableSink is a test double for core.Probe: a ParallelAuditSink
// whose forks accumulate worker-locally and union-merge at close.
type forkableSink struct {
	mu     sync.Mutex
	seen   map[string]struct{}
	merges int
}

func newForkableSink() *forkableSink {
	return &forkableSink{seen: make(map[string]struct{})}
}

func (s *forkableSink) Observe(v value.Value) {
	s.mu.Lock()
	s.seen[value.KeyOf(v)] = struct{}{}
	s.mu.Unlock()
}

func (s *forkableSink) ObserveBatch(vs []value.Value) {
	s.mu.Lock()
	for _, v := range vs {
		s.seen[value.KeyOf(v)] = struct{}{}
	}
	s.mu.Unlock()
}

func (s *forkableSink) Fork() plan.WorkerAuditSink {
	return &forkedSink{parent: s, seen: make(map[string]struct{})}
}

type forkedSink struct {
	parent *forkableSink
	seen   map[string]struct{}
}

func (w *forkedSink) Observe(v value.Value) { w.seen[value.KeyOf(v)] = struct{}{} }
func (w *forkedSink) ObserveBatch(vs []value.Value) {
	for _, v := range vs {
		w.seen[value.KeyOf(v)] = struct{}{}
	}
}
func (w *forkedSink) Merge() {
	w.parent.mu.Lock()
	for k := range w.seen {
		w.parent.seen[k] = struct{}{}
	}
	w.parent.merges++
	w.parent.mu.Unlock()
}

// auditWrap wraps the plan's Scan in an Audit on partition column 0.
func auditWrap(n plan.Node, sink plan.AuditSink) plan.Node {
	return auditWrapIf(n, sink, func(n plan.Node) bool { _, ok := n.(*plan.Scan); return ok })
}

// TestParallelAuditSinkUnionMatchesSerial: worker-local forked sinks
// union-merged at operator close must observe exactly the serial
// ACCESSED id-set, and Merge must run once per worker before the
// exchange drains (Close happens-before the last batch is consumed).
func TestParallelAuditSinkUnionMatchesSerial(t *testing.T) {
	h := bigHarness(t)
	const sql = "SELECT k FROM big WHERE grp < 10"

	serialSink := newForkableSink()
	if _, err := Run(auditWrap(mustPlan(t, h, sql), serialSink), NewCtx(h.store)); err != nil {
		t.Fatal(err)
	}
	if len(serialSink.seen) != 500 {
		t.Fatalf("serial sink saw %d ids, want 500", len(serialSink.seen))
	}

	for _, workers := range []int{2, 8} {
		sink := newForkableSink()
		n := auditWrap(parallelPlan(t, h, sql, workers), sink)
		rows, _ := runWorkers(t, h, n, workers)
		if len(rows) != 500 {
			t.Fatalf("workers=%d: rows = %d, want 500", workers, len(rows))
		}
		if len(sink.seen) != len(serialSink.seen) {
			t.Fatalf("workers=%d: audit union has %d ids, serial %d", workers, len(sink.seen), len(serialSink.seen))
		}
		for k := range serialSink.seen {
			if _, ok := sink.seen[k]; !ok {
				t.Fatalf("workers=%d: id missing from parallel audit union", workers)
			}
		}
		if sink.merges != workers {
			t.Errorf("workers=%d: %d merges, want one per worker", workers, sink.merges)
		}
	}
}

// TestParallelLimitStaysSerial: nothing below a Limit may be
// parallelized — the bounded-work property (and the audit observation
// set under LIMIT) depends on serial arrival order.
func TestParallelLimitStaysSerial(t *testing.T) {
	h := bigHarness(t)
	n := parallelPlan(t, h, "SELECT k FROM big LIMIT 3", 8)
	parallel := false
	plan.Walk(n, func(x plan.Node) {
		switch s := x.(type) {
		case *plan.Gather:
			parallel = true
		case *plan.Scan:
			if s.Parallel {
				parallel = true
			}
		}
	})
	if parallel {
		t.Fatalf("plan under LIMIT was parallelized:\n%s", plan.Explain(n))
	}
	rows, ctx := runWorkers(t, h, n, 8)
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	if ctx.Stats.RowsScanned.Load() > batchSeed {
		t.Errorf("LIMIT 3 scanned %d rows, want bounded", ctx.Stats.RowsScanned.Load())
	}
}

// TestGatherSerialFallback: a Gather executing with Workers < 2 (e.g. a
// cached parallel plan run after SET WORKERS 1) degrades to opening its
// child serially.
func TestGatherSerialFallback(t *testing.T) {
	h := bigHarness(t)
	const sql = "SELECT k FROM big WHERE grp = 7"
	n := parallelPlan(t, h, sql, 4)
	if _, ok := n.(*plan.Gather); !ok {
		t.Fatalf("plan root is %T, want *plan.Gather", n)
	}
	rows, _ := runWorkers(t, h, n, 1)
	sameRows(t, "gather workers=1", h.query(t, sql), rows)
}
