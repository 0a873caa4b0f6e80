package exec

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// ---- Aggregation ----

type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	min      value.Value
	max      value.Value
	distinct keyTable // a DISTINCT aggregate's argument values
	any      bool
}

// aggIter is hash aggregation: reset consumes the entire child, folds
// every row into its group's states, then renders one row per group
// (or exactly one row for a global aggregate over empty input), which
// NextBatch streams out. A Parallel-marked aggregate executing with a
// worker budget runs the two-phase path instead.
type aggIter struct {
	a     *plan.Aggregate
	child Iterator // the serial input
	ctx   *Ctx
	folder
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
		f, err := foldParallel(it.a, it.ctx)
		if err != nil {
			return err
		}
		it.emit(f)
		return nil
	}
	err := it.child.reset()
	if err == nil {
		err = it.fold(it.a, it.child, it.ctx)
	}
	it.child.Close()
	it.in.release()
	if err != nil {
		return err
	}
	it.emit(&it.folder)
	return nil
}

func (it *aggIter) Close() {
	it.rows = recycle(it.rows)
	it.folder.recycle()
}

// folder is one fold's group table: the key table over the group keys
// and, by slot, each group's key values (its first row's) and aggregate
// states. A global aggregate (no GROUP BY) has no keys and exactly one
// group, slot 0, present even over empty input. The serial operator
// keeps its folder for the next run (its Close empties it); a parallel
// run folds one per worker.
type folder struct {
	in     *Batch
	groups keyTable
	keys   []value.Value // group s's key values: keys[s*len(GroupBy):]
	states []aggState    // group s's states: states[s*len(Aggs):]
	// The keys of the batch being folded: its group keys, and each
	// DISTINCT aggregate's arguments (args is indexed by aggregate).
	lane keyLane
	args []keyLane
}

// fold drains child into the group table a batch at a time: the
// batch's group keys and DISTINCT arguments are gathered, then each row
// is folded into its group. A key or argument that failed to evaluate
// surfaces at its row, after every row before it.
func (f *folder) fold(a *plan.Aggregate, child Iterator, ctx *Ctx) error {
	nk, na := len(a.GroupBy), len(a.Aggs)
	if nk == 0 && len(f.states) == 0 {
		f.states = append(f.states, make([]aggState, na)...)
	}
	if len(f.args) != na {
		f.args = make([]keyLane, na)
	}
	return pull(child, &f.in, func(rows []value.Row) error {
		if nk > 0 {
			f.lane.gather(a.GroupBy, ctx, rows)
			rows = rows[:f.lane.errAt]
		}
		for j, spec := range a.Aggs {
			if spec.Distinct {
				f.args[j].gather([]plan.Expr{spec.Arg}, ctx, rows)
			}
		}
		for i, row := range rows {
			s := 0
			if nk > 0 {
				slot, added := f.groups.slot(&f.lane, i)
				if added {
					for _, g := range a.GroupBy {
						v, _ := g.Eval(ctx.Eval, row) // it did not fail when gathered
						f.keys = append(f.keys, v)
					}
					f.states = append(f.states, make([]aggState, na)...)
				}
				s = int(slot)
			}
			if err := f.foldRow(a, f.states[s*na:(s+1)*na], i, ctx, row); err != nil {
				return err
			}
		}
		return f.lane.err // nil without GROUP BY: the lane never gathers
	})
}

// foldRow folds row i of the batch into its group's states.
func (f *folder) foldRow(a *plan.Aggregate, states []aggState, i int, ctx *Ctx, row value.Row) error {
	for j, spec := range a.Aggs {
		st := &states[j]
		var v value.Value
		switch l := &f.args[j]; {
		case spec.Arg == nil:
			st.count++ // COUNT(*) counts rows unconditionally
			continue
		case spec.Distinct:
			if i == l.errAt {
				return l.err
			}
			if l.keys[i].null {
				continue
			}
			if _, added := st.distinct.slot(l, i); !added {
				continue
			}
			v, _ = spec.Arg.Eval(ctx.Eval, row) // it did not fail when gathered
		default:
			var err error
			if v, err = spec.Arg.Eval(ctx.Eval, row); err != nil {
				return err
			}
			if v.IsNull() {
				continue // NULLs are ignored by all aggregates
			}
		}
		if err := st.add(spec, v); err != nil {
			return err
		}
	}
	return nil
}

// recycle empties the group table for the next fold, dropping what
// outgrew keepRows.
func (f *folder) recycle() {
	f.groups.recycle()
	f.keys = recycle(f.keys)
	f.states = recycle(f.states)
}

// emit renders the group table as result rows in ascending order of
// the groups' encoded keys — deterministic by construction, and
// identical between the serial and two-phase parallel paths
// (first-appearance order would differ run to run under parallel
// folding). The rows are fresh (they escape to the consumer) and share
// one backing array.
func (it *aggIter) emit(f *folder) {
	nk, na := len(it.a.GroupBy), len(it.a.Aggs)
	order := []keyed{{}} // the global group, slot 0
	if nk > 0 {
		order = f.groups.sorted()
	}
	w := nk + na
	backing := make([]value.Value, len(order)*w)
	it.rows = it.rows[:0]
	for i, g := range order {
		s := int(g.slot)
		out := value.Row(backing[i*w : (i+1)*w : (i+1)*w])
		copy(out, f.keys[s*nk:(s+1)*nk])
		for j, spec := range it.a.Aggs {
			out[nk+j] = finish(&f.states[s*na+j], spec)
		}
		it.rows = append(it.rows, out)
	}
}

// mergeState folds one worker's partial aggregate state into dst. The
// planner never parallelizes DISTINCT aggregates (per-worker DISTINCT tables
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
// locks), then the partials merge serially, in worker-index order, into
// worker 0's table, which emits exactly like the serial operator's.
// Each partial's keys are re-slotted lane by lane into worker 0's key
// table; a group new to it keeps the partial's key values and states.
func foldParallel(a *plan.Aggregate, ctx *Ctx) (*folder, error) {
	ws, err := openWorkers(a.Child, ctx, ctx.Workers)
	if err != nil {
		return nil, err
	}
	folders := make([]folder, len(ws))
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *worker) {
			defer wg.Done()
			errs[i] = w.drive(func() error { return folders[i].fold(a, w.iter, w.ctx) })
		}(i, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	dst := &folders[0]
	var src *folder
	nk, na := len(a.GroupBy), len(a.Aggs)
	merge := func(from, to int32, added bool) {
		states := src.states[int(from)*na : int(from+1)*na]
		if added {
			dst.keys = append(dst.keys, src.keys[int(from)*nk:int(from+1)*nk]...)
			dst.states = append(dst.states, states...)
			return
		}
		for j := range states {
			mergeState(&dst.states[int(to)*na+j], &states[j])
		}
	}
	for i := 1; i < len(folders); i++ {
		if src = &folders[i]; nk == 0 {
			merge(0, 0, false)
		} else {
			dst.groups.merge(&src.groups, merge)
		}
	}
	return dst, nil
}

// add folds v, a non-NULL argument, into st.
func (st *aggState) add(spec plan.AggSpec, v value.Value) error {
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
// every row's sort keys once into keys (row r's at r.key), and
// stable-sorts; NextBatch streams the sorted rows out. Under a Limit
// (topK) it keeps only the first k rows in (keys, input position)
// order, in a bounded heap: the same rows, in the same order, as the
// full stable sort truncated to k.
type sortIter struct {
	s     *plan.Sort
	child Iterator
	ctx   *Ctx
	in    *Batch
	keyed []sortRow
	keys  []value.Value
	// k bounds the rows kept (topK); negative keeps them all. Once keyed
	// holds k rows it is a heap with its last row in order on top.
	k int64
	scanIter
}

type sortRow struct {
	row value.Row
	key int // offset of the row's sort keys in keys
	pos int // input position, which breaks ties
}

func buildSort(s *plan.Sort, ctx *Ctx) (Iterator, error) {
	child, err := build(s.Child, ctx, nil)
	if err != nil {
		return nil, err
	}
	return &sortIter{s: s, child: child, ctx: ctx, k: -1}, nil
}

// topK hands a Sort the row budget of the Limit above it. The Limit
// reads the Sort directly or through Audit and Project operators, which
// pass rows on one for one and in order, so the Sort is asked for at
// most n rows.
func topK(it Iterator, n int64) {
	for {
		switch x := it.(type) {
		case *counted:
			it = x.child
		case *projectIter:
			it = x.child
		case *auditIter:
			it = x.child
		case *sortIter:
			x.k = n
			return
		default:
			return
		}
	}
}

// compare orders two rows by their sort keys, then input position.
func (it *sortIter) compare(a, b sortRow) int {
	for c, key := range it.s.Keys {
		d := value.Compare(it.keys[a.key+c], it.keys[b.key+c])
		if key.Desc {
			d = -d
		}
		if d != 0 {
			return d
		}
	}
	return cmp.Compare(a.pos, b.pos)
}

func (it *sortIter) reset() error {
	it.pos = 0
	err := it.child.reset()
	if err == nil {
		pos := 0
		err = pull(it.child, &it.in, func(in []value.Row) error {
			for _, row := range in {
				r := sortRow{row: row, key: len(it.keys), pos: pos}
				pos++
				for _, k := range it.s.Keys {
					v, err := k.Expr.Eval(it.ctx.Eval, row)
					if err != nil {
						return err
					}
					it.keys = append(it.keys, v)
				}
				it.add(r)
			}
			return nil
		})
	}
	it.child.Close()
	it.in.release()
	if err != nil {
		return err
	}
	slices.SortFunc(it.keyed, it.compare)
	for _, r := range it.keyed {
		it.rows = append(it.rows, r.row)
	}
	return nil
}

// add takes r, whose keys were just appended to keys. Past k rows, r
// replaces the heap's last row if it orders before it and is dropped
// otherwise; either way its keys leave the tail of keys.
func (it *sortIter) add(r sortRow) {
	if it.k < 0 || int64(len(it.keyed)) < it.k {
		it.keyed = append(it.keyed, r)
		if int64(len(it.keyed)) == it.k {
			for i := len(it.keyed)/2 - 1; i >= 0; i-- {
				it.down(i)
			}
		}
		return
	}
	if len(it.keyed) > 0 && it.compare(r, it.keyed[0]) < 0 {
		top := &it.keyed[0]
		copy(it.keys[top.key:top.key+len(it.s.Keys)], it.keys[r.key:])
		top.row, top.pos = r.row, r.pos
		it.down(0)
	}
	it.keys = it.keys[:r.key]
}

// down restores the max-heap order of keyed below i.
func (it *sortIter) down(i int) {
	h := it.keyed
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && it.compare(h[c+1], h[c]) > 0 {
			c++
		}
		if it.compare(h[c], h[i]) <= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

func (it *sortIter) Close() {
	it.rows = recycle(it.rows)
	it.keyed = recycle(it.keyed)
	it.keys = recycle(it.keys)
}
