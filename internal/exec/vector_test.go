package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"auditdb/internal/catalog"
	"auditdb/internal/obs"
	"auditdb/internal/opt"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// eval decides one row through the batch kernel: the three-valued
// truth of the conjunction on row, or handled=false when a term leaves
// the fast path before any term is False.
func (q *quickPred) eval(row value.Row) (value.Tri, bool) {
	p := batchPred{pred: &plan.Const{V: value.Null}, quick: *q}
	p.eval([]value.Row{row}, 1, nil, "", nil)
	switch p.state[0] {
	case rowTrue:
		return value.True, true
	case rowFalse:
		return value.False, true
	case rowUnknown:
		return value.Unknown, true
	}
	return value.Unknown, false
}

// rowAtATime is the reference for batchPred: each row on its own, in
// order. A row leaves the fast path when, scanning the terms left to
// right, one names a column the row lacks or pairs kinds outside the
// kind-pair table (claims) before any term is False for it; such a row
// is interpreted (and counted), and the first interpreter error ends
// the scan. It returns the indexes of the rows that hold, the number
// interpreted, and the failing row (len(rows) if none).
func rowAtATime(t *testing.T, terms []*plan.Cmp, pred plan.Expr, ctx *Ctx, rows []value.Row) (held []int, interpreted, errAt int) {
	t.Helper()
	for i, row := range rows {
		slow, tri := false, value.True
		for _, c := range terms {
			col, k := c.L, c.R
			if _, ok := col.(*plan.Col); !ok {
				col, k = k, col
			}
			idx := col.(*plan.Col).Idx
			if idx >= len(row) || !claims(k.(*plan.Const).V.Kind, row[idx].Kind) {
				slow = true
				break
			}
			v, err := c.Eval(ctx.Eval, row)
			if err != nil {
				t.Fatalf("claimed term %v on row %v: %v", c, row, err)
			}
			tri = tri.And(value.TriFromValue(v))
			if tri == value.False {
				break
			}
		}
		if slow {
			interpreted++
			v, err := pred.Eval(ctx.Eval, row)
			if err != nil {
				return held, interpreted, i
			}
			tri = value.TriFromValue(v)
		}
		if tri == value.True {
			held = append(held, i)
		}
	}
	return held, interpreted, len(rows)
}

// TestBatchPredMatchesRowAtATime: a filter deciding whole batches —
// fast-path terms over a selection vector, the rest interpreted
// afterwards — publishes the rows a row-at-a-time evaluation would, in
// the same order, counts the same rows into pred_interpreted_rows and
// fails at the same row. Rows mix every kind, so some leave the fast
// path at one term or another, and short rows make the interpreter fail
// (a column out of range).
func TestBatchPredMatchesRowAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	vals := predValues(t)
	pick := func() value.Value { return vals[rng.Intn(len(vals))] }
	fellBack, failed := 0, 0
	for trial := 0; trial < 300; trial++ {
		rows := make([]value.Row, 1+rng.Intn(60))
		for i := range rows {
			rows[i] = value.Row{pick(), pick()}
			if trial%3 == 0 && rng.Intn(25) == 0 {
				rows[i] = rows[i][:1]
			}
		}
		var terms []*plan.Cmp
		var pred plan.Expr
		for n := 1 + rng.Intn(3); len(terms) < n; {
			c := &plan.Cmp{Op: cmpOps[rng.Intn(len(cmpOps))], L: &plan.Col{Idx: rng.Intn(2)}, R: &plan.Const{V: pick()}}
			if rng.Intn(2) == 0 {
				c.L, c.R = c.R, c.L
			}
			terms = append(terms, c)
			if pred == nil {
				pred = c
			} else {
				pred = &plan.And{L: pred, R: c}
			}
		}
		ctx := NewCtx(nil)
		held, interpreted, errAt := rowAtATime(t, terms, pred, ctx, rows)
		if interpreted > 0 {
			fellBack++
		}
		if errAt < len(rows) {
			failed++
		}
		index := make(map[*value.Value]int, len(rows))
		for i, row := range rows {
			index[&row[0]] = i
		}
		for _, ceiling := range []int{1, 7, BatchSize} {
			const name = "t"
			ctx.Extra = map[string][]value.Row{name: rows}
			st := &obs.NodeStats{}
			it := &filterIter{child: &valuesIter{name: name, ctx: ctx}, pred: newBatchPred(pred), ctx: ctx, st: st}
			if err := it.reset(); err != nil {
				t.Fatal(err)
			}
			out, err := drainIt(t, it, ceiling)
			desc := fmt.Sprintf("trial %d, %v, ceiling %d", trial, pred, ceiling)
			if (err != nil) != (errAt < len(rows)) {
				t.Fatalf("%s: error %v, reference fails at row %d of %d", desc, err, errAt, len(rows))
			}
			// A failing batch publishes nothing: the rows that hold before
			// the failing row's batch are published, in order.
			want := held
			if err != nil {
				want = slices.DeleteFunc(slices.Clone(held), func(i int) bool { return i >= errAt/ceiling*ceiling })
			}
			got := make([]int, len(out))
			for i, row := range out {
				got[i] = index[&row[0]]
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: published rows %v, want %v", desc, got, want)
			}
			if st.PredInterpreted != int64(interpreted) {
				t.Fatalf("%s: interpreted %d rows, want %d", desc, st.PredInterpreted, interpreted)
			}
		}
	}
	if fellBack == 0 || failed == 0 {
		t.Fatalf("%d trials fell back to the interpreter, %d failed: both must be exercised", fellBack, failed)
	}
}

// TestScanKernelBatchPredWithMask: the scan kernel decides each chunk
// with the mask first, then the predicate — integer terms and a string
// term on the fast path, and a predicate outside its shape, which the
// interpreter decides for every visible row — and returns the unmasked
// result less the hidden rows, having scanned every row once.
func TestScanKernelBatchPredWithMask(t *testing.T) {
	h := bigHarness(t)
	tbl, _ := h.store.Table("big")
	mask := storage.NewMask()
	for id := storage.RowID(0); id < 5000; id += 7 {
		mask.Hide("big", id)
	}
	for _, c := range []struct {
		where       string
		interpreted bool
	}{
		{"grp < 50 AND k >= 100", false},
		{"grp + 0 < 50", true},
		{"v < 'v3' AND grp <> 7", false},
	} {
		sql := "SELECT k FROM big WHERE " + c.where
		n := mustPlan(t, h, sql)
		ctx := NewCtx(h.store)
		ctx.Mask = mask
		in := NewInstance(n, ctx)
		got, err := in.Run()
		if err != nil {
			t.Fatal(err)
		}
		all := h.query(t, sql)
		var want []value.Row
		for _, row := range all {
			if !mask.Hidden("big", storage.RowID(row[0].Int())) {
				want = append(want, row)
			}
		}
		if len(want) == 0 || !slices.Equal(rowKeys(got), rowKeys(want)) {
			t.Errorf("%s: %d rows under the mask, want %d", c.where, len(got), len(want))
		}
		var scan *plan.Scan
		plan.Walk(n, func(x plan.Node) {
			if s, ok := x.(*plan.Scan); ok {
				scan = s
			}
		})
		st := in.Stats(scan)
		if st.RowsScanned != int64(tbl.Len()) {
			t.Errorf("%s: rows_scanned = %d, want %d", c.where, st.RowsScanned, tbl.Len())
		}
		if interp := st.PredInterpreted; (interp > 0) != c.interpreted || c.interpreted && interp != int64(tbl.Len()-715) {
			t.Errorf("%s: pred_interpreted_rows = %d", c.where, interp)
		}
	}
}

// TestJoinLanesMatchNestedLoops: hash joins over keys of every kind —
// INT, integral and non-integral FLOAT, DATE, BOOL, VARCHAR, NULL, and
// two-column keys — return exactly the nested-loops multiset, serially
// building either input and with a partitioned parallel build. Keys
// that fit the int lane (INT 1, FLOAT 1.0, TRUE) join each other, keys
// off it join only by their encodings, and NULL joins nothing. The same
// keys go through GROUP BY, COUNT(DISTINCT), SUM(DISTINCT) and SELECT
// DISTINCT (checkKeyTable).
func TestJoinLanesMatchNestedLoops(t *testing.T) {
	date := func(s string) value.Value {
		d, err := value.ParseDate(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	i, f, s := value.NewInt, value.NewFloat, value.NewString
	null := value.Null
	type side struct {
		kinds []value.Kind
		keys  []value.Row
	}
	cases := []struct {
		name        string
		left, right side
	}{
		{"int = int",
			side{[]value.Kind{value.KindInt}, []value.Row{{i(1)}, {i(2)}, {i(2)}, {null}, {i(-7)}, {i(1 << 40)}}},
			side{[]value.Kind{value.KindInt}, []value.Row{{i(2)}, {i(1)}, {null}, {i(1 << 40)}, {i(3)}}}},
		{"int = float",
			side{[]value.Kind{value.KindInt}, []value.Row{{i(1)}, {i(2)}, {i(0)}, {null}, {i(3)}}},
			side{[]value.Kind{value.KindFloat}, []value.Row{{f(1)}, {f(1.5)}, {f(2)}, {f(0)}, {null}, {f(-0.5)}, {f(2.5)}}}},
		{"float = float",
			side{[]value.Kind{value.KindFloat}, []value.Row{{f(1.5)}, {f(2)}, {f(0.25)}, {null}, {f(1.5)}}},
			side{[]value.Kind{value.KindFloat}, []value.Row{{f(1.5)}, {f(2)}, {f(0.5)}, {null}}}},
		{"date = date",
			side{[]value.Kind{value.KindDate}, []value.Row{{date("1995-03-15")}, {date("1995-03-16")}, {null}, {date("1970-01-01")}}},
			side{[]value.Kind{value.KindDate}, []value.Row{{date("1995-03-15")}, {null}, {date("1970-01-01")}, {date("1970-01-01")}}}},
		{"bool = int",
			side{[]value.Kind{value.KindBool}, []value.Row{{value.NewBool(true)}, {value.NewBool(false)}, {null}}},
			side{[]value.Kind{value.KindInt}, []value.Row{{i(1)}, {i(0)}, {i(2)}, {null}}}},
		{"varchar = varchar",
			side{[]value.Kind{value.KindString}, []value.Row{{s("a")}, {s("")}, {s("ab")}, {null}, {s("1")}}},
			side{[]value.Kind{value.KindString}, []value.Row{{s("ab")}, {s("a")}, {s("")}, {null}, {s("b")}}}},
		{"(int, varchar) = (float, varchar)",
			side{[]value.Kind{value.KindInt, value.KindString}, []value.Row{{i(1), s("x")}, {i(1), s("y")}, {i(2), null}, {null, s("x")}, {i(2), s("x")}}},
			side{[]value.Kind{value.KindFloat, value.KindString}, []value.Row{{f(1), s("x")}, {f(1.5), s("x")}, {f(2), s("x")}, {f(2), null}, {null, s("y")}, {f(1), s("y")}}}},
		{"(int, int) with NULLs",
			side{[]value.Kind{value.KindInt, value.KindInt}, []value.Row{{i(1), null}, {i(2), null}, {null, null}, {i(1), i(1)}, {null, i(1)}, {i(2), null}}},
			side{[]value.Kind{value.KindInt, value.KindInt}, []value.Row{{i(1), i(1)}, {i(2), null}, {i(1), null}, {null, null}}}},
	}
	for _, c := range cases {
		for _, smallLeft := range []bool{false, true} {
			h := newHarness(t)
			table := func(name string, sd side, copies int) []value.Row {
				cols := []catalog.Column{{Name: "tag", Type: value.KindInt}}
				for k, kind := range sd.kinds {
					cols = append(cols, catalog.Column{Name: fmt.Sprintf("k%d", k), Type: kind})
				}
				var rows []value.Row
				for n := 0; n < copies; n++ {
					for r, key := range sd.keys {
						rows = append(rows, append(value.Row{i(int64(n*100 + r))}, key...))
					}
				}
				addTable(t, h, &catalog.TableMeta{Name: name, Columns: cols}, rows)
				return rows
			}
			lc, rc := 3, 1
			if smallLeft {
				lc, rc = 1, 3
			}
			lrows := table("l", c.left, lc)
			rrows := table("r", c.right, rc)
			if !smallLeft {
				checkKeyTable(t, h, c.name, c.left.kinds, c.right.kinds, lrows, rrows)
			}
			eq, nl := "l.k0 = r.k0", "l.k0 <= r.k0 AND l.k0 >= r.k0"
			if len(c.left.kinds) == 2 {
				eq += " AND l.k1 = r.k1"
				nl += " AND l.k1 <= r.k1 AND l.k1 >= r.k1"
			}
			const cols = "SELECT l.tag, r.tag FROM l, r WHERE "
			want, err := Run(mustPlan(t, h, cols+nl), NewCtx(h.store))
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatalf("%s: fixture joins nothing", c.name)
			}
			hash := mustPlan(t, h, cols+eq)
			j := findJoin(hash)
			if j == nil || len(j.LeftKeys) != len(c.left.kinds) {
				t.Fatalf("%s: no hash join on %d keys in\n%s", c.name, len(c.left.kinds), plan.Explain(hash))
			}
			got, in := analyzed(t, h, hash)
			if builtLeft := in.Stats(j).BuildLeft > 0; builtLeft != smallLeft {
				t.Errorf("%s: built left = %v, want %v", c.name, builtLeft, smallLeft)
			}
			label := fmt.Sprintf("%s, small left %v", c.name, smallLeft)
			sameRows(t, label+", serial", want, got)
			for _, workers := range []int{2, 4} {
				par := parallelPlan(t, h, cols+eq, workers)
				if pj := findJoin(par); pj == nil || !pj.Parallel {
					t.Fatalf("%s: workers %d: no partitioned join in\n%s", label, workers, plan.Explain(par))
				}
				rows, _ := runWorkers(t, h, par, workers)
				sameRows(t, fmt.Sprintf("%s, workers %d", label, workers), want, rows)
			}
		}
	}
}

// checkKeyTable runs the key-table operators over relations of
// (tag, key columns) rows: the stored tables l and r, typed, and u, an
// uncoerced relation holding l's rows then r's, so INT 1, FLOAT 1.0 and
// TRUE share a column. Each result is checked against a reference keyed
// by value.EncodeKey: GROUP BY (serially, and over l and r also with 2
// and 8 workers) returns one row per key in ascending encoded-key order,
// with the key values of the group's first row; COUNT(DISTINCT) and
// SUM(DISTINCT) fold each key's first value once, skipping NULL; SELECT
// DISTINCT keeps first occurrences in stream order. NULL is one key, and
// (1, NULL) is not (2, NULL).
func checkKeyTable(t *testing.T, h *harness, name string, lkinds, rkinds []value.Kind, lrows, rrows []value.Row) {
	t.Helper()
	urows := slices.Concat(lrows, rrows)
	for k := range urows[len(lrows):] {
		urows[len(lrows)+k] = append(value.Row{value.NewInt(int64(1000 + k))}, urows[len(lrows)+k][1:]...)
	}
	schema := plan.Schema{{Name: "tag", Kind: value.KindInt}}
	isNumeric := func(k value.Kind) bool { return k == value.KindInt || k == value.KindFloat || k == value.KindBool }
	keys := make([]string, len(lkinds))
	numeric := make([]bool, len(lkinds)) // SUM takes the column on both sides
	for c, kind := range lkinds {
		keys[c] = fmt.Sprintf("k%d", c)
		schema = append(schema, plan.ColInfo{Name: keys[c], Kind: kind})
		numeric[c] = isNumeric(kind) && isNumeric(rkinds[c])
	}
	extra := &plan.Env{Catalog: h.cat, Extra: map[string]plan.Schema{"u": schema}}
	run := func(label, sql string, workers int) []value.Row {
		t.Helper()
		sel, err := parser.ParseQuery(sql)
		if err != nil {
			t.Fatal(err)
		}
		n, err := plan.Build(extra, sel)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		n = opt.Optimize(n)
		ctx := NewCtx(h.store)
		ctx.Extra = map[string][]value.Row{"u": urows}
		if workers > 1 {
			n = parallelPlan(t, h, sql, workers)
			var agg *plan.Aggregate
			plan.Walk(n, func(x plan.Node) {
				if a, ok := x.(*plan.Aggregate); ok {
					agg = a
				}
			})
			if agg == nil || !agg.Parallel {
				t.Fatalf("%s: no two-phase aggregate in\n%s", label, plan.Explain(n))
			}
			ctx.Workers = workers
		}
		rows, err := NewInstance(n, ctx).Run()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return rows
	}
	same := func(label string, want, got []value.Row) {
		t.Helper()
		ok := len(want) == len(got)
		for r := 0; ok && r < len(want); r++ {
			ok = len(want[r]) == len(got[r])
			for c := 0; ok && c < len(want[r]); c++ {
				ok = want[r][c].Kind == got[r][c].Kind && value.KeyOf(want[r][c]) == value.KeyOf(got[r][c])
			}
		}
		if !ok {
			t.Errorf("%s:\n got %v\nwant %v", label, got, want)
		}
	}
	cols := strings.Join(keys, ", ")
	for _, rel := range []struct {
		name string
		rows []value.Row
	}{{"l", lrows}, {"r", rrows}, {"u", urows}} {
		label := fmt.Sprintf("%s, %s", name, rel.name)
		// The reference: groups by encoded key, in first-seen order.
		type group struct {
			key           value.Row
			count, minTag int64
		}
		groups := map[string]*group{}
		var encs []string
		var firsts []value.Row
		for _, r := range rel.rows {
			var enc []byte
			for _, v := range r[1:] {
				enc = value.EncodeKey(enc, v)
			}
			g, ok := groups[string(enc)]
			if !ok {
				g = &group{key: r[1:], minTag: r[0].Int()}
				groups[string(enc)] = g
				encs = append(encs, string(enc))
				firsts = append(firsts, r[1:])
			}
			g.count++
			g.minTag = min(g.minTag, r[0].Int())
		}
		slices.Sort(encs)
		var want []value.Row
		for _, e := range encs {
			g := groups[e]
			want = append(want, append(slices.Clone(g.key), value.NewInt(g.count), value.NewInt(g.minTag)))
		}
		sql := fmt.Sprintf("SELECT %s, COUNT(*), MIN(tag) FROM %s GROUP BY %s", cols, rel.name, cols)
		same(label+", GROUP BY", want, run(label, sql, 1))
		if rel.name != "u" {
			for _, workers := range []int{2, 8} {
				l := fmt.Sprintf("%s, GROUP BY, workers %d", label, workers)
				same(l, want, run(l, sql, workers))
			}
		}
		same(label+", SELECT DISTINCT", firsts, run(label, fmt.Sprintf("SELECT DISTINCT %s FROM %s", cols, rel.name), 1))
		for c, key := range keys {
			seen := map[string]bool{}
			var count, sumI int64
			var sumF float64
			isFloat, any := false, false
			for _, r := range rel.rows {
				v := r[1+c]
				if v.IsNull() || seen[value.KeyOf(v)] {
					continue
				}
				seen[value.KeyOf(v)] = true
				count, any = count+1, true
				if v.Kind == value.KindFloat {
					sumF, isFloat = sumF+v.F, true
				} else {
					sumI += v.I
				}
			}
			l := fmt.Sprintf("%s, COUNT(DISTINCT %s)", label, key)
			same(l, []value.Row{{value.NewInt(count)}}, run(l, fmt.Sprintf("SELECT COUNT(DISTINCT %s) FROM %s", key, rel.name), 1))
			if !numeric[c] {
				continue
			}
			sum := value.Null
			switch {
			case isFloat:
				sum = value.NewFloat(sumF + float64(sumI))
			case any:
				sum = value.NewInt(sumI)
			}
			l = fmt.Sprintf("%s, SUM(DISTINCT %s)", label, key)
			same(l, []value.Row{{sum}}, run(l, fmt.Sprintf("SELECT SUM(DISTINCT %s) FROM %s", key, rel.name), 1))
		}
	}
}

// TestTopKMatchesSortThenTruncate: a Sort under a Limit — directly, or
// through a Project and an Audit — keeps a bounded heap, and returns
// exactly the full stable sort truncated to the limit, for limits 0, 1,
// n-1, n and n+5, over duplicate keys, NULLs and mixed ASC/DESC keys.
// The audit operator between them observes the same values either way.
func TestTopKMatchesSortThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	orders := []string{"a", "a DESC", "a, b DESC", "b DESC, a", "b, c DESC, a", "c DESC"}
	for trial := 0; trial < 40; trial++ {
		h := newHarness(t)
		rows := make([]value.Row, 1+rng.Intn(80))
		maybeNull := func(v value.Value) value.Value {
			if rng.Intn(6) == 0 {
				return value.Null
			}
			return v
		}
		for r := range rows {
			rows[r] = value.Row{
				value.NewInt(int64(r)),
				maybeNull(value.NewInt(int64(rng.Intn(5)))),
				maybeNull(value.NewString(string(rune('p' + rng.Intn(4))))),
				maybeNull(value.NewFloat(float64(rng.Intn(3)) / 2)),
			}
		}
		addTable(t, h, &catalog.TableMeta{Name: "s", Columns: []catalog.Column{
			{Name: "id", Type: value.KindInt}, {Name: "a", Type: value.KindInt},
			{Name: "b", Type: value.KindString}, {Name: "c", Type: value.KindFloat},
		}}, rows)
		n := len(rows)
		order := orders[trial%len(orders)]
		for _, wrap := range []bool{false, true} {
			sql := "SELECT id, a, b, c FROM s ORDER BY " + order
			full, fullBag := topKRun(t, h, sql, wrap, -1)
			for _, k := range []int{0, 1, n - 1, n, n + 5} {
				got, bag := topKRun(t, h, fmt.Sprintf("%s LIMIT %d", sql, k), wrap, int64(k))
				want := full[:min(k, n)]
				if !slices.Equal(rowKeys(got), rowKeys(want)) {
					t.Fatalf("trial %d, ORDER BY %s LIMIT %d (audit %v): got %v, want %v", trial, order, k, wrap, got, want)
				}
				if wrap && !slices.Equal(bag, sortedKeys(want)) {
					t.Fatalf("trial %d, ORDER BY %s LIMIT %d: audit observed %v", trial, order, k, bag)
				}
			}
			if wrap && len(fullBag) != n {
				t.Fatalf("trial %d: the unlimited sort's audit observed %d rows, want %d", trial, len(fullBag), n)
			}
		}
	}
}

// topKRun plans sql, optionally with an Audit over its Sort, checks the
// Sort was handed the limit k (-1: none), and runs it.
func topKRun(t *testing.T, h *harness, sql string, audit bool, k int64) ([]value.Row, []string) {
	t.Helper()
	n := mustPlan(t, h, sql)
	sink := &forkBagSink{}
	if audit {
		n = auditWrapIf(n, sink, func(x plan.Node) bool { _, ok := x.(*plan.Sort); return ok })
	}
	in := NewInstance(n, NewCtx(h.store))
	rows, err := in.Run()
	if err != nil {
		t.Fatal(err)
	}
	var bound int64 = -2
	var find func(it Iterator)
	find = func(it Iterator) {
		switch x := it.(type) {
		case *counted:
			find(x.child)
		case *limitIter:
			find(x.child)
		case *projectIter:
			find(x.child)
		case *auditIter:
			find(x.child)
		case *sortIter:
			bound = x.k
		}
	}
	find(in.it)
	if bound != k {
		t.Fatalf("%s: the sort kept %d rows, want %d\n%s", sql, bound, k, plan.Explain(n))
	}
	return rows, sink.bag()
}

func sortedKeys(rows []value.Row) []string {
	var out []string
	for _, r := range rows {
		out = append(out, value.KeyOf(r[0]))
	}
	slices.Sort(out)
	return out
}
