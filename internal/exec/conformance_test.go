package exec

import (
	"sort"
	"sync"
	"testing"

	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// bagSink records the multiset of observed partition-by values. It is
// deliberately unsynchronized: inside a parallel fragment only a
// worker's private fork may observe into one, which is what -race
// checks.
type bagSink struct{ vals []string }

func (s *bagSink) ObserveBatch(vs []value.Value) int {
	for _, v := range vs {
		s.vals = append(s.vals, value.KeyOf(v))
	}
	return 0
}

func (s *bagSink) bag() []string { sort.Strings(s.vals); return s.vals }
func (s *bagSink) forget()       { s.vals = nil }

// elidedChunks counts the chunks whose probes ctx's operators elided on
// a sketch refutation. The conformance plans carry no sketch pruner, so
// it must stay 0.
func elidedChunks(ctx *Ctx) int64 {
	var n int64
	for _, r := range ctx.prof.nodes {
		n += r.st.ChunksSkippedAudit
	}
	return n
}

// forkBagSink is the audit sink: serial operators observe into its bag,
// workers into private forks that append to it at Merge.
type forkBagSink struct {
	bagSink
	mu sync.Mutex
}

func (s *forkBagSink) Fork() plan.WorkerAuditSink { return &bagFork{parent: s} }

type bagFork struct {
	bagSink
	parent *forkBagSink
}

func (f *bagFork) Merge() {
	f.parent.mu.Lock()
	f.parent.vals = append(f.parent.vals, f.vals...)
	f.parent.mu.Unlock()
}

// auditWrapIf wraps the first node (pre-order) that match accepts in an
// Audit on partition column 0.
func auditWrapIf(n plan.Node, sink plan.AuditSink, match func(plan.Node) bool) plan.Node {
	if match(n) {
		return &plan.Audit{Child: n, IDIdx: 0, Sink: sink}
	}
	for i, c := range n.Children() {
		n.SetChild(i, auditWrapIf(c, sink, match))
	}
	return n
}

func isFilter(n plan.Node) bool  { _, ok := n.(*plan.Filter); return ok }
func isProject(n plan.Node) bool { _, ok := n.(*plan.Project); return ok }

// rawPlan plans sql without the optimizer, so predicates stay in Filter
// operators above the scan instead of being pushed into the kernel.
func rawPlan(t *testing.T, h *harness, sql string) plan.Node {
	t.Helper()
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		t.Fatal(err)
	}
	n, err := plan.Build(&plan.Env{Catalog: h.cat}, sel)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// drainAt opens n and drains it at ceiling c (see drainIt).
func drainAt(t *testing.T, n plan.Node, ctx *Ctx, c int) ([]value.Row, error) {
	t.Helper()
	it, err := open(n, ctx, nil)
	if err != nil {
		t.Fatal(err)
	}
	return drainIt(t, it, c)
}

// drainIt pulls a reset operator through batches with request ceiling
// c, checking the contract on every call: at most c rows, b.Rows is
// exactly the published prefix, and an exhausted operator keeps
// returning 0. It closes the operator, ending the run. On error it
// returns the rows published by the calls before it.
func drainIt(t *testing.T, it Iterator, c int) ([]value.Row, error) {
	t.Helper()
	defer it.Close()
	b := NewBatch(c)
	var out []value.Row
	for {
		k, err := it.NextBatch(b)
		if err != nil {
			return out, err
		}
		if k > c || k != len(b.Rows) {
			t.Fatalf("ceiling %d: NextBatch = %d with %d rows published", c, k, len(b.Rows))
		}
		if k == 0 {
			for i := 0; i < 2; i++ {
				if k, err := it.NextBatch(b); k != 0 || err != nil {
					t.Fatalf("ceiling %d: exhausted operator returned %d, %v", c, k, err)
				}
			}
			return out, nil
		}
		out = append(out, b.Rows...)
	}
}

func conformanceHarness(t *testing.T) *harness {
	h := addNullable(t, bigHarness(t))
	tbl, _ := h.store.Table("big")
	if err := tbl.AddIndex("by_grp", []int{1}); err != nil {
		t.Fatal(err)
	}
	return h
}

var ceilings = []int{1, 3, 8, 1024}

// TestOperatorConformance drains every operator through the one
// contract at several request ceilings: the rows (as a multiset, or in
// order under a Sort or an aggregate's sorted emission) and the audit
// sink's observations must not depend on the ceiling, nothing may
// exceed it, and exhaustion is sticky. Then one tree is built and run
// again and again, at every ceiling up and back down, each full run
// preceded by a run stopped after one batch: every full run must equal
// a fresh tree's — a missing reset shows up as lost, repeated or
// leftover rows or observations.
func TestOperatorConformance(t *testing.T) {
	h := conformanceHarness(t)
	planned := func(sql string) func(plan.AuditSink) plan.Node {
		return func(plan.AuditSink) plan.Node { return mustPlan(t, h, sql) }
	}
	cases := []struct {
		name    string
		build   func(sink plan.AuditSink) plan.Node
		want    int  // result rows
		seen    int  // sink observations (0: no audit operator)
		ordered bool // compare row sequences, not multisets
		workers int
		extra   map[string][]value.Row
	}{
		{name: "heap scan", build: planned("SELECT k, grp, v FROM big WHERE grp < 3"), want: 150},
		{name: "index scan", build: planned("SELECT k, grp, v FROM big WHERE grp = 7"), want: 50},
		{name: "values", build: func(plan.AuditSink) plan.Node {
			return &plan.ValuesScan{Name: "accessed", Out: plan.Schema{{Name: "id", Kind: value.KindInt}}}
		}, want: 20, extra: map[string][]value.Row{"accessed": intRows(20)}},
		{name: "filter", build: func(plan.AuditSink) plan.Node {
			return rawPlan(t, h, "SELECT k, grp, v FROM big WHERE grp % 10 = 3")
		}, want: 500},
		{name: "project", build: planned("SELECT k + 1, v FROM big WHERE grp < 3"), want: 150},
		{name: "audit fused", build: func(s plan.AuditSink) plan.Node {
			return auditWrap(mustPlan(t, h, "SELECT k, grp, v FROM big WHERE grp < 3"), s)
		}, want: 150, seen: 150},
		{name: "audit fused through project", build: func(s plan.AuditSink) plan.Node {
			return auditWrapIf(mustPlan(t, h, "SELECT k, v FROM big WHERE grp < 3"), s, isProject)
		}, want: 150, seen: 150},
		{name: "audit unfused", build: func(s plan.AuditSink) plan.Node {
			return auditWrapIf(rawPlan(t, h, "SELECT k, grp, v FROM big WHERE grp % 10 = 3"), s, isFilter)
		}, want: 500, seen: 500},
		{name: "limit", build: planned("SELECT k FROM big WHERE grp < 3 LIMIT 37"), want: 37, ordered: true},
		{name: "distinct", build: planned("SELECT DISTINCT k - k % 5 FROM big"), want: 1000},
		{name: "hash join inner", build: planned("SELECT b.k, e.dept FROM big b, emp e WHERE b.grp = e.id"), want: 200},
		{name: "hash join inner, build left", build: planned("SELECT e.dept, b.k FROM emp e, big b WHERE e.id = b.grp"), want: 200},
		{name: "hash join inner, build left, audited", build: func(s plan.AuditSink) plan.Node {
			return auditWrapIf(mustPlan(t, h, "SELECT e.id, b.k FROM emp e, big b WHERE e.id = b.grp AND b.k < 3000"), s,
				func(n plan.Node) bool { _, ok := n.(*plan.Join); return ok })
		}, want: 120, seen: 120},
		{name: "hash join left", build: planned("SELECT b.k, e.dept FROM big b LEFT JOIN emp e ON b.grp = e.id AND e.sal > 100 WHERE b.grp < 6"), want: 300},
		{name: "nl join inner", build: planned("SELECT la.id, rb.z FROM la, rb WHERE la.x < rb.z"), want: 6},
		{name: "nl join left", build: planned("SELECT e.id, la.id FROM emp e LEFT JOIN la ON e.sal > la.x * 6"), want: 5},
		{name: "aggregate", build: planned("SELECT grp, COUNT(*), SUM(k) FROM big GROUP BY grp"), want: 100, ordered: true},
		{name: "sort", build: planned("SELECT k, v FROM big WHERE grp = 5 ORDER BY v DESC"), want: 50, ordered: true},
		{name: "gather 1 worker", build: func(s plan.AuditSink) plan.Node {
			return &plan.Gather{Child: auditWrap(mustPlan(t, h, "SELECT k, v FROM big WHERE grp < 37"), s), Workers: 1}
		}, want: 1850, seen: 1850},
		{name: "gather 4 workers", build: func(s plan.AuditSink) plan.Node {
			return auditWrap(parallelPlan(t, h, "SELECT k, v FROM big WHERE grp < 37", 4), s)
		}, want: 1850, seen: 1850, workers: 4},
		{name: "gather 4 workers, join, shared sink", build: func(s plan.AuditSink) plan.Node {
			n := parallelPlan(t, h, "SELECT b.k, e.dept FROM big b, emp e WHERE b.grp = e.id", 4)
			return auditWrapIf(n, s, func(n plan.Node) bool { sc, ok := n.(*plan.Scan); return ok && sc.Table == "big" })
		}, want: 200, seen: 5000, workers: 4},
		{name: "aggregate 4 workers", build: func(plan.AuditSink) plan.Node {
			return parallelPlan(t, h, "SELECT grp, COUNT(*), SUM(k) FROM big GROUP BY grp", 4)
		}, want: 100, ordered: true, workers: 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			newCtx := func() *Ctx {
				ctx := NewCtx(h.store)
				ctx.Workers, ctx.Extra = c.workers, c.extra
				return ctx
			}
			canonical := func(rows []value.Row) []string {
				if c.ordered {
					return rowKeys(rows)
				}
				return canon(rows)
			}
			var refRows, refSeen []string
			for _, ceiling := range ceilings {
				sink := &forkBagSink{}
				ctx := newCtx()
				rows, err := drainAt(t, c.build(sink), ctx, ceiling)
				if err != nil {
					t.Fatal(err)
				}
				if n := elidedChunks(ctx); n != 0 {
					t.Fatalf("ceiling %d: probes of %d chunks elided without a sketch pruner", ceiling, n)
				}
				got := canonical(rows)
				if len(got) != c.want || len(sink.bag()) != c.seen {
					t.Fatalf("ceiling %d: %d rows, %d observations; want %d, %d", ceiling, len(got), len(sink.bag()), c.want, c.seen)
				}
				if refRows == nil {
					refRows, refSeen = got, sink.bag()
					continue
				}
				if !equalStrings(got, refRows) {
					t.Errorf("ceiling %d: rows differ from ceiling %d", ceiling, ceilings[0])
				}
				if !equalStrings(sink.bag(), refSeen) {
					t.Errorf("ceiling %d: sink observations differ from ceiling %d", ceiling, ceilings[0])
				}
			}

			sink := &forkBagSink{}
			ctx := newCtx()
			it, err := build(c.build(sink), ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := range 2 * len(ceilings) {
				ceiling := ceilings[min(i, 2*len(ceilings)-1-i)]
				// A run stopped after one batch, then a full one.
				if err := it.reset(); err != nil {
					t.Fatal(err)
				}
				if _, err := it.NextBatch(NewBatch(ceiling)); err != nil {
					t.Fatal(err)
				}
				it.Close()
				sink.forget()
				if err := it.reset(); err != nil {
					t.Fatal(err)
				}
				rows, err := drainIt(t, it, ceiling)
				if err != nil {
					t.Fatal(err)
				}
				if !equalStrings(canonical(rows), refRows) {
					t.Errorf("run %d, ceiling %d: reused tree's rows differ from a fresh tree's (%d rows, want %d)", i, ceiling, len(rows), len(refRows))
				}
				if !equalStrings(sink.bag(), refSeen) {
					t.Errorf("run %d, ceiling %d: reused tree's sink observations differ from a fresh tree's (%d, want %d)", i, ceiling, len(sink.bag()), len(refSeen))
				}
			}
			if n := elidedChunks(ctx); n != 0 {
				t.Errorf("reused tree: probes of %d chunks elided without a sketch pruner", n)
			}
		})
	}
}

// TestOperatorErrorMidBatch: an Eval error on a row in the middle of a
// batch must surface from every operator that evaluates expressions,
// and the calls before it must have published only rows that precede
// the failing one — all of them when the ceiling is 1.
func TestOperatorErrorMidBatch(t *testing.T) {
	h := conformanceHarness(t)
	cases := []struct {
		name   string
		n      func() plan.Node
		before string // the rows that precede the failing one, in order
	}{
		{"scan kernel predicate", func() plan.Node { return mustPlan(t, h, "SELECT k FROM big WHERE 10 / (k - 5) <> 99") },
			"SELECT k FROM big WHERE k < 5"},
		{"filter", func() plan.Node { return rawPlan(t, h, "SELECT k FROM big WHERE 10 / (k - 5) <> 99") },
			"SELECT k FROM big WHERE k < 5"},
		{"project", func() plan.Node { return mustPlan(t, h, "SELECT 10 / (k - 5) FROM big") },
			"SELECT 10 / (k - 5) FROM big WHERE k < 5"},
		{"hash join residual", func() plan.Node {
			return mustPlan(t, h, "SELECT b.k FROM big b JOIN emp e ON b.grp = e.id AND 10 / (b.k - 200 - e.id) <> 99 WHERE b.grp < 5")
		}, "SELECT k FROM big WHERE grp BETWEEN 1 AND 4 AND k < 201"},
		{"hash join residual, build left", func() plan.Node {
			return mustPlan(t, h, "SELECT b.k FROM emp e JOIN big b ON e.id = b.grp AND 10 / (b.k - 200 - e.id) <> 99 WHERE b.grp < 5")
		}, "SELECT k FROM big WHERE grp BETWEEN 1 AND 4 AND k < 201"},
		{"nl join condition", func() plan.Node {
			return mustPlan(t, h, "SELECT e1.id, e2.id FROM emp e1 JOIN emp e2 ON 10 / (e1.id * 4 + e2.id - 11) <> 99")
		}, "SELECT e1.id, e2.id FROM emp e1, emp e2 WHERE e1.id = 1 OR (e1.id = 2 AND e2.id < 3)"},
		{"distinct over failing child", func() plan.Node { return mustPlan(t, h, "SELECT DISTINCT 10 / (k - 5) FROM big") },
			"SELECT 10 / (k - 5) FROM big WHERE k < 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := rowKeys(h.query(t, c.before))
			if len(before) == 0 {
				t.Fatal("fixture: no rows precede the failing one")
			}
			for _, ceiling := range ceilings {
				rows, err := drainAt(t, c.n(), NewCtx(h.store), ceiling)
				if err == nil {
					t.Fatalf("ceiling %d: error did not surface (%d rows)", ceiling, len(rows))
				}
				got := rowKeys(rows)
				if len(got) > len(before) || !equalStrings(got, before[:len(got)]) {
					t.Errorf("ceiling %d: published %d rows that are not a prefix of the %d preceding the failure", ceiling, len(got), len(before))
				}
				if ceiling == 1 && len(got) != len(before) {
					t.Errorf("ceiling 1: published %d rows before the error, want %d", len(got), len(before))
				}
			}
		})
	}
}

func intRows(n int) []value.Row {
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{value.NewInt(int64(i))}
	}
	return rows
}

// rowKeys is canon without the sort: rows as comparable strings in
// arrival order.
func rowKeys(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		var b []byte
		for _, v := range r {
			b = value.EncodeKey(b, v)
		}
		out[i] = string(b)
	}
	return out
}

func equalStrings(a, b []string) bool {
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
