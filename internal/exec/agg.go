package exec

import (
	"fmt"
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

// openAggregate performs hash aggregation: consume the entire child,
// bucket by group-by keys, fold each aggregate, then emit one row per
// group (or exactly one row for a global aggregate over empty input).
// A Parallel-marked aggregate executing with a worker budget runs the
// two-phase path instead.
func openAggregate(a *plan.Aggregate, ctx *Ctx) (Iterator, error) {
	if a.Parallel && ctx.Workers >= 2 {
		return openParallelAggregate(a, ctx)
	}
	child, err := open(a.Child, ctx, nil)
	if err != nil {
		return nil, err
	}
	defer child.Close()

	groups := make(map[string]*aggGroup)
	if err := foldInput(a, child, ctx, groups); err != nil {
		return nil, err
	}
	return emitGroups(a, groups), nil
}

// foldInput drains child into the group table. A global aggregate (no
// GROUP BY) has exactly one group under the empty key, always present
// (even over empty input); it skips key encoding and the per-row map
// lookup entirely.
func foldInput(a *plan.Aggregate, child Iterator, ctx *Ctx, groups map[string]*aggGroup) error {
	var global *aggGroup
	if len(a.GroupBy) == 0 {
		global = &aggGroup{states: make([]aggState, len(a.Aggs))}
		groups[""] = global
	}
	keyVals := make(value.Row, len(a.GroupBy)) // per-row scratch
	var keyBuf []byte                          // reusable key scratch
	return pull(child, func(rows []value.Row) error {
		for _, row := range rows {
			grp := global
			if grp == nil {
				keyBuf = keyBuf[:0]
				for i, g := range a.GroupBy {
					v, err := g.Eval(ctx.Eval, row)
					if err != nil {
						return err
					}
					keyVals[i] = v
					keyBuf = value.EncodeKey(keyBuf, v)
				}
				// The string(keyBuf) lookup does not allocate; the key
				// string and group-by row only materialize per new group.
				var ok bool
				grp, ok = groups[string(keyBuf)]
				if !ok {
					k := string(keyBuf)
					grp = &aggGroup{keys: keyVals.Clone(), states: make([]aggState, len(a.Aggs))}
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

// emitGroups renders the group table as result rows in sorted
// encoded-key order — deterministic by construction, and identical
// between the serial and two-phase parallel paths (first-appearance
// order would differ run to run under parallel folding).
func emitGroups(a *plan.Aggregate, groups map[string]*aggGroup) *scanIter {
	order := make([]string, 0, len(groups))
	for k := range groups {
		order = append(order, k)
	}
	sort.Strings(order)
	rows := make([]value.Row, 0, len(groups))
	for _, k := range order {
		grp := groups[k]
		out := make(value.Row, 0, len(a.GroupBy)+len(a.Aggs))
		out = append(out, grp.keys...)
		for i, spec := range a.Aggs {
			out = append(out, finish(&grp.states[i], spec))
		}
		rows = append(rows, out)
	}
	return &scanIter{rows: rows}
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

// openParallelAggregate is the two-phase path: one fragment per worker
// folds morsels of the child into a private group table (no shared
// state, no locks), then the partials merge serially in worker-index
// order and the merged table emits exactly like the serial operator.
func openParallelAggregate(a *plan.Aggregate, ctx *Ctx) (Iterator, error) {
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
			errs[i] = w.drive(func() error { return foldInput(a, w.iter, w.ctx, partials[i]) })
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
	return emitGroups(a, groups), nil
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

func openSort(s *plan.Sort, ctx *Ctx) (Iterator, error) {
	child, err := open(s.Child, ctx, nil)
	if err != nil {
		return nil, err
	}
	defer child.Close()
	type keyed struct {
		row  value.Row
		keys value.Row
	}
	var rows []keyed
	kw := len(s.Keys)
	err = pull(child, func(in []value.Row) error {
		// One backing array of sort keys per input batch.
		backing := make([]value.Value, len(in)*kw)
		for ri, row := range in {
			keys := value.Row(backing[ri*kw : (ri+1)*kw : (ri+1)*kw])
			for i, k := range s.Keys {
				v, err := k.Expr.Eval(ctx.Eval, row)
				if err != nil {
					return err
				}
				keys[i] = v
			}
			rows = append(rows, keyed{row: row, keys: keys})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.SliceStable(rows, func(i, j int) bool {
		for k, key := range s.Keys {
			c := value.Compare(rows[i].keys[k], rows[j].keys[k])
			if c == 0 {
				continue
			}
			if key.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	out := make([]value.Row, len(rows))
	for i, r := range rows {
		out[i] = r.row
	}
	return &scanIter{rows: out}, nil
}
