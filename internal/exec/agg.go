package exec

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// ---- Aggregation ----

type aggState struct {
	count   int64
	sumI    int64
	sumF    float64
	isFloat bool
	min     value.Value
	max     value.Value
	seen    map[string]struct{} // DISTINCT values
	any     bool
}

type aggGroup struct {
	keys   value.Row
	states []aggState
}

// aggIter is hash aggregation: reset consumes the entire child,
// buckets by group-by keys, folds each aggregate, then renders one row
// per group (or exactly one row for a global aggregate over empty
// input), which NextBatch streams out. A Parallel-marked aggregate
// executing with a worker budget runs the two-phase path instead.
type aggIter struct {
	a      *plan.Aggregate
	child  Iterator // the serial input
	ctx    *Ctx
	groups map[string]*aggGroup
	folder
	order []string
	scanIter
}

func buildAggregate(a *plan.Aggregate, ctx *Ctx) (Iterator, error) {
	child, err := build(a.Child, ctx, nil)
	if err != nil {
		return nil, err
	}
	return &aggIter{a: a, child: child, ctx: ctx}, nil
}

func (it *aggIter) reset() error {
	it.pos = 0
	if it.a.Parallel && it.ctx.Workers >= 2 {
		groups, err := foldParallel(it.a, it.ctx)
		if err != nil {
			return err
		}
		it.emit(groups)
		return nil
	}
	if it.groups == nil {
		it.groups = make(map[string]*aggGroup)
	}
	err := it.child.reset()
	if err == nil {
		err = it.fold(it.a, it.child, it.ctx, it.groups)
	}
	it.child.Close()
	it.in.release()
	if err != nil {
		return err
	}
	it.emit(it.groups)
	return nil
}

func (it *aggIter) Close() {
	it.rows = recycle(it.rows)
	it.order = recycle(it.order)
	it.groups = recycleMap(it.groups)
	clear(it.keyVals)
	if it.global != nil {
		clear(it.global.states)
	}
}

// folder is the scratch of one fold: the refill batch, the group-key
// buffers and a global aggregate's one group, all reused by the next
// fold of the same operator (the operator's Close empties them).
type folder struct {
	in      *Batch
	keyVals value.Row
	keyBuf  []byte
	global  *aggGroup
}

// fold drains child into the group table. A global aggregate (no
// GROUP BY) has exactly one group under the empty key, always present
// (even over empty input); it skips key encoding and the per-row map
// lookup entirely.
func (f *folder) fold(a *plan.Aggregate, child Iterator, ctx *Ctx, groups map[string]*aggGroup) error {
	global := f.global
	if len(a.GroupBy) == 0 {
		if global == nil {
			global = &aggGroup{states: make([]aggState, len(a.Aggs))}
			f.global = global
		}
		groups[""] = global
	} else if len(f.keyVals) != len(a.GroupBy) {
		f.keyVals = make(value.Row, len(a.GroupBy))
	}
	return pull(child, &f.in, func(rows []value.Row) error {
		for _, row := range rows {
			grp := global
			if len(a.GroupBy) > 0 {
				f.keyBuf = f.keyBuf[:0]
				for i, g := range a.GroupBy {
					v, err := g.Eval(ctx.Eval, row)
					if err != nil {
						return err
					}
					f.keyVals[i] = v
					f.keyBuf = value.EncodeKey(f.keyBuf, v)
				}
				// The string(keyBuf) lookup does not allocate; the key
				// string and group-by row only materialize per new group.
				var ok bool
				grp, ok = groups[string(f.keyBuf)]
				if !ok {
					k := string(f.keyBuf)
					grp = &aggGroup{keys: f.keyVals.Clone(), states: make([]aggState, len(a.Aggs))}
					groups[k] = grp
				}
			}
			for i, spec := range a.Aggs {
				if err := fold(&grp.states[i], spec, ctx, row); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// emit renders the group table as result rows in sorted encoded-key
// order — deterministic by construction, and identical between the
// serial and two-phase parallel paths (first-appearance order would
// differ run to run under parallel folding). The rows are fresh (they
// escape to the consumer) and share one backing array.
func (it *aggIter) emit(groups map[string]*aggGroup) {
	it.order = it.order[:0]
	for k := range groups {
		it.order = append(it.order, k)
	}
	sort.Strings(it.order)
	nk := len(it.a.GroupBy)
	w := nk + len(it.a.Aggs)
	backing := make([]value.Value, len(it.order)*w)
	it.rows = it.rows[:0]
	for i, k := range it.order {
		grp := groups[k]
		out := value.Row(backing[i*w : (i+1)*w : (i+1)*w])
		copy(out, grp.keys)
		for j, spec := range it.a.Aggs {
			out[nk+j] = finish(&grp.states[j], spec)
		}
		it.rows = append(it.rows, out)
	}
}

// mergeState folds one worker's partial aggregate state into dst. The
// planner never parallelizes DISTINCT aggregates (per-worker seen-sets
// are not mergeable into correct counts) and gates SUM/AVG to integer
// arguments (float accumulation order would leak into results), so the
// merge is exact: counts and integer sums add, extrema compare.
func mergeState(dst, src *aggState) {
	dst.count += src.count
	dst.sumI += src.sumI
	dst.sumF += src.sumF
	dst.isFloat = dst.isFloat || src.isFloat
	dst.any = dst.any || src.any
	if !src.min.IsNull() && (dst.min.IsNull() || value.Compare(src.min, dst.min) < 0) {
		dst.min = src.min
	}
	if !src.max.IsNull() && (dst.max.IsNull() || value.Compare(src.max, dst.max) > 0) {
		dst.max = src.max
	}
}

// foldParallel is the two-phase path: one fragment per worker folds
// morsels of the child into a private group table (no shared state, no
// locks), then the partials merge serially in worker-index order into
// a table that emits exactly like the serial operator's.
func foldParallel(a *plan.Aggregate, ctx *Ctx) (map[string]*aggGroup, error) {
	ws, err := openWorkers(a.Child, ctx, ctx.Workers)
	if err != nil {
		return nil, err
	}
	partials := make([]map[string]*aggGroup, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		partials[i] = make(map[string]*aggGroup)
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			var f folder
			errs[i] = w.drive(func() error { return f.fold(a, w.iter, w.ctx, partials[i]) })
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	groups := partials[0]
	for _, part := range partials[1:] {
		for k, g := range part {
			dst, ok := groups[k]
			if !ok {
				groups[k] = g
				continue
			}
			for i := range dst.states {
				mergeState(&dst.states[i], &g.states[i])
			}
		}
	}
	return groups, nil
}

func fold(st *aggState, spec plan.AggSpec, ctx *Ctx, row value.Row) error {
	// COUNT(*) counts rows unconditionally.
	if spec.Arg == nil {
		st.count++
		return nil
	}
	v, err := spec.Arg.Eval(ctx.Eval, row)
	if err != nil {
		return err
	}
	if v.IsNull() {
		return nil // NULLs are ignored by all aggregates
	}
	if spec.Distinct {
		if st.seen == nil {
			st.seen = make(map[string]struct{})
		}
		k := value.KeyOf(v)
		if _, dup := st.seen[k]; dup {
			return nil
		}
		st.seen[k] = struct{}{}
	}
	st.any = true
	st.count++
	switch spec.Func {
	case plan.AggSum, plan.AggAvg:
		switch v.Kind {
		case value.KindFloat:
			st.isFloat = true
			st.sumF += v.F
		case value.KindInt, value.KindBool:
			st.sumI += v.I
		default:
			return fmt.Errorf("%s: non-numeric argument %s", spec.Func, v.Kind)
		}
	case plan.AggMin:
		if st.min.IsNull() || value.Compare(v, st.min) < 0 {
			st.min = v
		}
	case plan.AggMax:
		if st.max.IsNull() || value.Compare(v, st.max) > 0 {
			st.max = v
		}
	}
	return nil
}

func finish(st *aggState, spec plan.AggSpec) value.Value {
	switch spec.Func {
	case plan.AggCount:
		return value.NewInt(st.count)
	case plan.AggSum:
		if !st.any {
			return value.Null
		}
		if st.isFloat {
			return value.NewFloat(st.sumF + float64(st.sumI))
		}
		return value.NewInt(st.sumI)
	case plan.AggAvg:
		if !st.any || st.count == 0 {
			return value.Null
		}
		return value.NewFloat((st.sumF + float64(st.sumI)) / float64(st.count))
	case plan.AggMin:
		return st.min
	case plan.AggMax:
		return st.max
	}
	return value.Null
}

// ---- Sort ----

// sortIter is a blocking sort: reset drains the child, evaluating
// every row's sort keys once into keys (row i's at keyed[i].key), and
// stable-sorts; NextBatch streams the sorted rows out.
type sortIter struct {
	s     *plan.Sort
	child Iterator
	ctx   *Ctx
	in    *Batch
	keyed []sortRow
	keys  []value.Value
	scanIter
}

type sortRow struct {
	row value.Row
	key int
}

func buildSort(s *plan.Sort, ctx *Ctx) (Iterator, error) {
	child, err := build(s.Child, ctx, nil)
	if err != nil {
		return nil, err
	}
	return &sortIter{s: s, child: child, ctx: ctx}, nil
}

func (it *sortIter) reset() error {
	it.pos = 0
	err := it.child.reset()
	if err == nil {
		err = pull(it.child, &it.in, func(in []value.Row) error {
			for _, row := range in {
				key := len(it.keys)
				for _, k := range it.s.Keys {
					v, err := k.Expr.Eval(it.ctx.Eval, row)
					if err != nil {
						return err
					}
					it.keys = append(it.keys, v)
				}
				it.keyed = append(it.keyed, sortRow{row: row, key: key})
			}
			return nil
		})
	}
	it.child.Close()
	it.in.release()
	if err != nil {
		return err
	}
	slices.SortStableFunc(it.keyed, func(a, b sortRow) int {
		for c, key := range it.s.Keys {
			cmp := value.Compare(it.keys[a.key+c], it.keys[b.key+c])
			if key.Desc {
				cmp = -cmp
			}
			if cmp != 0 {
				return cmp
			}
		}
		return 0
	})
	for _, r := range it.keyed {
		it.rows = append(it.rows, r.row)
	}
	return nil
}

func (it *sortIter) Close() {
	it.rows = recycle(it.rows)
	it.keyed = recycle(it.keyed)
	it.keys = recycle(it.keys)
}
