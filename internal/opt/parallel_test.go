package opt

import (
	"strings"
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// bigEst pretends every table is huge; smallEst that none qualifies.
func bigEst(string) int64   { return 1 << 20 }
func smallEst(string) int64 { return 3 }

func parallelCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := testCatalog(t)
	if err := cat.AddTable(&catalog.TableMeta{Name: "f", Columns: []catalog.Column{
		{Name: "id", Type: value.KindInt},
		{Name: "price", Type: value.KindFloat},
	}}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func parallelized(t *testing.T, sql string, est EstimateFn) plan.Node {
	t.Helper()
	return Parallelize(optimized(t, parallelCatalog(t), sql), est, 4, 100)
}

func hasGather(n plan.Node) bool {
	found := false
	plan.Walk(n, func(x plan.Node) {
		if _, ok := x.(*plan.Gather); ok {
			found = true
		}
	})
	return found
}

func hasParallelAgg(n plan.Node) bool {
	found := false
	plan.Walk(n, func(x plan.Node) {
		if a, ok := x.(*plan.Aggregate); ok && a.Parallel {
			found = true
		}
	})
	return found
}

func TestParallelizeInsertsGather(t *testing.T) {
	n := parallelized(t, "SELECT x FROM a WHERE x > 3", bigEst)
	g, ok := n.(*plan.Gather)
	if !ok {
		t.Fatalf("root is %T, want *plan.Gather:\n%s", n, plan.Explain(n))
	}
	if g.Workers != 4 {
		t.Errorf("Gather workers = %d, want 4", g.Workers)
	}
	scans := findScans(n)
	if len(scans) != 1 || !scans[0].Parallel {
		t.Errorf("scan not marked parallel:\n%s", plan.Explain(n))
	}
}

func TestParallelizeRespectsThreshold(t *testing.T) {
	n := parallelized(t, "SELECT x FROM a WHERE x > 3", smallEst)
	if hasGather(n) {
		t.Fatalf("small input was parallelized:\n%s", plan.Explain(n))
	}
}

func TestParallelizeSkipsSerialBudget(t *testing.T) {
	n := Parallelize(optimized(t, parallelCatalog(t), "SELECT x FROM a"), bigEst, 1, 100)
	if hasGather(n) {
		t.Fatal("workers=1 must not rewrite the plan")
	}
}

// TestParallelizeLimitPoisonsSubtree: LIMIT's bounded-work semantics
// (and the audit observation set under it) require serial arrival
// order below it — even when a Sort sits in between is it only the
// Sort's own subtree that may go parallel.
func TestParallelizeLimitPoisonsSubtree(t *testing.T) {
	n := parallelized(t, "SELECT x FROM a LIMIT 5", bigEst)
	if hasGather(n) {
		t.Fatalf("subtree under LIMIT was parallelized:\n%s", plan.Explain(n))
	}
	// Sort is a pipeline breaker: it consumes its input fully no matter
	// the LIMIT above, so the scan below it may go parallel again.
	n = parallelized(t, "SELECT x FROM a ORDER BY x LIMIT 5", bigEst)
	if !hasGather(n) {
		t.Fatalf("scan under Sort (under LIMIT) should be parallel:\n%s", plan.Explain(n))
	}
}

// TestParallelizeFloatSumStaysSerial: float addition does not commute
// bitwise, so SUM/AVG over a float column must not run two-phase or
// over an exchange — the result bytes would depend on worker count.
func TestParallelizeFloatSumStaysSerial(t *testing.T) {
	n := parallelized(t, "SELECT SUM(price) FROM f", bigEst)
	if hasGather(n) || hasParallelAgg(n) {
		t.Fatalf("float SUM was parallelized:\n%s", plan.Explain(n))
	}
	// Integer SUM is exact under any fold order: two-phase is fine.
	n = parallelized(t, "SELECT SUM(id) FROM f", bigEst)
	if !hasParallelAgg(n) {
		t.Fatalf("integer SUM should run two-phase:\n%s", plan.Explain(n))
	}
	// COUNT over the float table is order-free too.
	n = parallelized(t, "SELECT COUNT(*) FROM f", bigEst)
	if !hasParallelAgg(n) {
		t.Fatalf("COUNT(*) should run two-phase:\n%s", plan.Explain(n))
	}
}

// TestParallelizeDistinctAggStaysSerial: per-worker DISTINCT seen-sets
// do not merge into correct counts, so two-phase is excluded.
func TestParallelizeDistinctAggStaysSerial(t *testing.T) {
	n := parallelized(t, "SELECT COUNT(DISTINCT x) FROM a", bigEst)
	if hasParallelAgg(n) {
		t.Fatalf("DISTINCT aggregate went two-phase:\n%s", plan.Explain(n))
	}
}

// TestParallelizeSubqueryStaysSerial: fragments must be subquery-free —
// subplan execution shares mutable evaluation state.
func TestParallelizeSubqueryStaysSerial(t *testing.T) {
	n := parallelized(t, "SELECT x FROM a WHERE x IN (SELECT y FROM b)", bigEst)
	if hasGather(n) {
		t.Fatalf("fragment with subquery was parallelized:\n%s", plan.Explain(n))
	}
}

// TestParallelizeJoinSpine: an equi-join fragment parallelizes with the
// probe (left) side morsel-driven and both join + scan marked.
func TestParallelizeJoinSpine(t *testing.T) {
	n := parallelized(t, "SELECT a.x, b.y FROM a, b WHERE a.id = b.id", bigEst)
	if !hasGather(n) {
		t.Fatalf("equi-join fragment not parallelized:\n%s", plan.Explain(n))
	}
	j := findJoin(n)
	if j == nil || !j.Parallel {
		t.Fatalf("join not marked parallel:\n%s", plan.Explain(n))
	}
}

// TestParallelizeExplainLabels: parallel operators must be visible in
// EXPLAIN output so operators can verify plans from the shell.
func TestParallelizeExplainLabels(t *testing.T) {
	n := parallelized(t, "SELECT x FROM a WHERE x > 3", bigEst)
	out := plan.Explain(n)
	want := []string{"Gather", "[parallel]"}
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("EXPLAIN missing %q:\n%s", w, out)
		}
	}
}

// TestParallelizeIndexPointStaysSerial: a scan the kernel serves from
// an index (primary key or single-column secondary index, literal or
// parameter) reads a handful of rows however large the table is, so it
// is never the driving scan of a parallel fragment — not under Gather,
// not under a two-phase aggregate, not as a join's probe side.
func TestParallelizeIndexPointStaysSerial(t *testing.T) {
	cat := parallelCatalog(t)
	if err := cat.AddTable(&catalog.TableMeta{Name: "o", PrimaryKey: []int{0}, Columns: []catalog.Column{
		{Name: "okey", Type: value.KindInt},
		{Name: "ckey", Type: value.KindInt},
		{Name: "price", Type: value.KindInt},
	}}); err != nil {
		t.Fatal(err)
	}
	if err := cat.AddIndex(&catalog.IndexMeta{Name: "o_ckey", Table: "o", Columns: []int{1}}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		sql    string
		serial bool
	}{
		{"SELECT price FROM o WHERE okey = 7", true},
		{"SELECT price FROM o WHERE price >= 0 AND okey = ? AND ckey > 1", true},
		{"SELECT okey FROM o WHERE ckey = ?", true},
		{"SELECT COUNT(*), SUM(price) FROM o WHERE ckey = 3", true},
		{"SELECT o.price, a.x FROM o, a WHERE o.okey = a.id AND o.okey = 5", true},
		{"SELECT okey FROM o WHERE ckey = 3 ORDER BY price DESC LIMIT 3", true},
		// Not index points: a range on the key, an equality on an
		// unindexed column, an equality between two columns, and an
		// unindexed equality listed before the indexed one (the kernel
		// probes the first equality only).
		{"SELECT price FROM o WHERE okey > 7", false},
		{"SELECT okey FROM o WHERE price = 10", false},
		{"SELECT okey FROM o WHERE okey = ckey", false},
		{"SELECT okey FROM o WHERE price = 10 AND okey = 7", false},
	} {
		n := Parallelize(optimized(t, cat, tc.sql), bigEst, 4, 100)
		if got := !hasGather(n) && !hasParallelAgg(n); got != tc.serial {
			t.Errorf("%q: serial = %v, want %v:\n%s", tc.sql, got, tc.serial, plan.Explain(n))
		}
	}
}
