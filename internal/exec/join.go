package exec

import (
	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// buildJoin builds the left input and, for a serial join, the right
// one: a serial join drains one input every run into a hash table and
// probes with the other; a worker's fragment probes with its left input
// the partitioned table its run built once. A join counts the runs that
// built its left input into st.
func buildJoin(j *plan.Join, ctx *Ctx, w *worker, st *obs.NodeStats) (Iterator, error) {
	left, err := build(j.Left, ctx, w)
	if err != nil {
		return nil, err
	}
	var right Iterator
	if w == nil {
		if right, err = build(j.Right, ctx, nil); err != nil {
			return nil, err
		}
	}
	it := &hashJoinIter{
		j: j, left: left, right: right, ctx: ctx, w: w, st: st, probe: left, cond: j.Residual,
		leftWidth: len(j.Left.Schema()), rightWidth: len(j.Right.Schema()),
	}
	if len(j.LeftKeys) == 0 {
		it.cond = j.Cond
	}
	// Only a serial inner equi-join may build its left input: a left
	// join null-extends left rows, so it probes with them; a worker's
	// fragment probes the table its run built from the right input; and
	// a join without equi-keys emits in left-row order.
	if w == nil && j.Kind == plan.JoinInner && len(j.LeftKeys) > 0 {
		it.leftScans = appendScans(nil, j.Left)
		it.rightScans = appendScans(nil, j.Right)
	}
	return it, nil
}

// appendScans appends the table scans in n.
func appendScans(scans []*plan.Scan, n plan.Node) []*plan.Scan {
	if s, ok := n.(*plan.Scan); ok {
		return append(scans, s)
	}
	for _, c := range n.Children() {
		scans = appendScans(scans, c)
	}
	return scans
}

// estimateRows estimates the size of a join input from its scans under
// the run's data: the largest live row count among their tables. An
// index point lookup counts one row without touching its table. A
// deletion-test mask does not change a table's live count, so masked
// re-executions estimate exactly as their unmasked baseline does.
func estimateRows(scans []*plan.Scan, ctx *Ctx) int {
	est := 0
	for _, s := range scans {
		rows := 1
		if !s.IndexPoint() {
			rows = 0
			if tbl, ok := ctx.Store.Table(s.Table); ok {
				rows = tbl.Len()
			}
		}
		est = max(est, rows)
	}
	return est
}

// ---- The join table ----

// joinTable is a hash join's build table: one per serial join, and one
// per partition of a parallel run's shared build. Its key table gives
// each key a bucket, the build rows with that key in build order. A key
// holding a NULL is not added and finds nothing: NULL never joins.
// Buckets are reused across runs while the table stays within keepRows.
type joinTable struct {
	keys    keyTable
	buckets [][]value.Row // by slot
	rows    int           // build rows added this run
}

// add appends row to the bucket of row i's gathered key.
func (t *joinTable) add(l *keyLane, i int, row value.Row) {
	if l.keys[i].null {
		return
	}
	b, _ := t.keys.slot(l, i)
	if int(b) == len(t.buckets) {
		t.buckets = append(t.buckets, nil)
	}
	t.buckets[b] = append(t.buckets[b], row)
	t.rows++
}

// find returns the bucket holding row i's gathered key, or -1.
func (t *joinTable) find(l *keyLane, i int) int32 {
	if l.keys[i].null {
		return -1
	}
	return t.keys.find(l, i)
}

// recycle empties the table for the next run, or drops it when it
// outgrew keepRows.
func (t *joinTable) recycle() {
	if t.rows > keepRows {
		*t = joinTable{}
		return
	}
	for b := range t.buckets[:t.keys.len()] {
		t.buckets[b] = recycle(t.buckets[b])
	}
	t.keys.recycle()
	t.rows = 0
}

// ---- Hash join ----

// hashJoinIter builds a hash table over one input keyed by its
// equi-join keys and probes it with the other input's rows, applying
// the residual predicate to each candidate pair. A join without
// equi-keys (a cross join, a non-equi condition) is nested loops: every
// row has the empty key, so each probe row meets the whole build input
// and the full join condition decides each pair. It builds the right
// input, except that a serial inner join builds its left input when
// that input's estimate is the smaller one (decided per run, in reset);
// either way every pair is laid out left|right. Left-outer rows with no
// surviving match are null-extended. Both sides move through reusable
// key lanes, a batch at a time, and pairs are carved out of slabs
// instead of one allocation per row.
type hashJoinIter struct {
	j     *plan.Join
	left  Iterator
	right Iterator // nil in a worker's fragment
	ctx   *Ctx
	w     *worker
	st    *obs.NodeStats // the Join node's record
	// cond decides each candidate pair: the residual, or the full
	// condition of a join without equi-keys.
	cond plan.Expr

	// The scans each input's estimate is taken from; nil unless the
	// join may build its left input.
	leftScans, rightScans []*plan.Scan
	// This run's roles: buildLeft says the left input was built and the
	// right one probes; probe and probeKeys are the probing input and
	// its key expressions.
	buildLeft bool
	probe     Iterator
	probeKeys []plan.Expr

	// parts is the build table split by key hash: the serial table as
	// one partition, or the table a parallel run shares, one partition
	// per worker (each probe then hashes its key onto a partition first).
	parts      []joinTable
	leftWidth  int
	rightWidth int

	// table is the serial build table, as one partition; it keeps its
	// buckets between runs while it stays within keepRows.
	table [1]joinTable
	rin   *Batch
	// lane holds the keys of the build batch being added, then of the
	// probe batch and the buckets they found.
	lane keyLane

	cur     value.Row // current probe row
	matches []value.Row
	mi      int
	matched bool
	done    bool

	// Output pair memory: slab is the unused rest of the last refill
	// (kept across calls and runs: no emitted pair points into it), pair
	// an uncommitted slot (a candidate the residual rejected) taken from
	// it, refill the size in pairs of this NextBatch call's last refill.
	slab   []value.Value
	pair   value.Row
	refill int

	probeIn probeInput
}

func (it *hashJoinIter) reset() error {
	it.buildLeft = estimateRows(it.leftScans, it.ctx) < estimateRows(it.rightScans, it.ctx)
	build, buildKeys := it.right, it.j.RightKeys
	it.probe, it.probeKeys = it.left, it.j.LeftKeys
	if it.buildLeft {
		build, buildKeys = it.left, it.j.LeftKeys
		it.probe, it.probeKeys = it.right, it.j.RightKeys
		it.st.BuildLeft++
	}
	if err := it.probe.reset(); err != nil {
		return err
	}
	it.cur, it.matches, it.mi, it.matched, it.done = nil, nil, 0, false, false
	it.probeIn.pos = 0
	if it.w != nil {
		parts, err := it.w.run.join(it.j)
		if err != nil {
			return err
		}
		it.parts = parts
		return nil
	}
	it.parts = it.table[:]
	return it.buildTable(build, buildKeys)
}

// buildTable drains the build input into the serial build table, a
// batch at a time: the batch's keys are gathered, then added.
func (it *hashJoinIter) buildTable(build Iterator, keys []plan.Expr) error {
	defer build.Close()
	if err := build.reset(); err != nil {
		return err
	}
	t, l := &it.table[0], &it.lane
	err := pull(build, &it.rin, func(rows []value.Row) error {
		l.gather(keys, it.ctx, rows)
		for i, row := range rows[:l.errAt] {
			t.add(l, i, row)
		}
		return l.err
	})
	it.rin.release()
	return err
}

// nextProbe returns the next probe row and the build rows its key
// matches. A refill gathers the new batch's keys, then looks them all
// up; a key that failed to evaluate surfaces when its row comes up,
// after every row before it has been joined.
func (it *hashJoinIter) nextProbe() (value.Row, []value.Row, bool, error) {
	p, l := &it.probeIn, &it.lane
	if p.in == nil || p.pos >= len(p.in.Rows) {
		if ok, err := p.refill(it.probe); !ok {
			return nil, nil, false, err
		}
		l.gather(it.probeKeys, it.ctx, p.in.Rows)
		for i := range l.errAt {
			k := &l.keys[i]
			k.part = 0
			if len(it.parts) > 1 {
				k.part = int32(l.partition(i, len(it.parts)))
			}
			k.bucket = it.parts[k.part].find(l, i)
		}
	}
	i := p.pos
	if i == l.errAt {
		return nil, nil, false, l.err
	}
	p.pos++
	var matches []value.Row
	if k := &l.keys[i]; k.bucket >= 0 {
		matches = it.parts[k.part].buckets[k.bucket]
	}
	return p.in.Rows[i], matches, true, nil
}

// takePair returns the output slot for the next pair: the slot a
// rejected candidate left uncommitted, or a fresh one carved from the
// slab. A dry slab is refilled with room for the current probe row's
// pending matches — at least double the call's previous refill, so a
// stream of one-match rows costs O(log n) refills per batch, not one
// per pair — and never more than the batch still has room for.
func (it *hashJoinIter) takePair(pending, room int) value.Row {
	if it.pair == nil {
		w := it.leftWidth + it.rightWidth
		if len(it.slab) < w {
			it.refill = max(pending, 2*it.refill)
			it.slab = make([]value.Value, min(it.refill, room)*w)
		}
		it.pair = value.Row(it.slab[:w:w])
		it.slab = it.slab[w:]
	}
	return it.pair
}

// NextBatch advances the probe state machine until the output batch is
// full or the probe input is exhausted.
func (it *hashJoinIter) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	n := 0
	it.refill = 0
	for n < limit {
		// Drain pending matches for the current probe row.
		if it.mi < len(it.matches) {
			r := it.matches[it.mi]
			it.mi++
			p := it.takePair(len(it.matches)-it.mi+1, limit-n)
			l, r := it.cur, r
			if it.buildLeft {
				l, r = r, l
			}
			copy(p, l)
			copy(p[it.leftWidth:], r)
			if it.cond != nil {
				v, err := it.cond.Eval(it.ctx.Eval, p)
				if err != nil {
					b.setRows(n)
					return n, err
				}
				if value.TriFromValue(v) != value.True {
					continue
				}
			}
			it.matched = true
			b.buf[n] = p
			n++
			it.pair = nil
			continue
		}
		// Left-outer null extension, emitted exactly once per
		// unmatched left row (a left join always probes with its left
		// input).
		if it.cur != nil && !it.matched && it.j.Kind == plan.JoinLeft {
			it.matched = true
			p := it.takePair(1, limit-n)
			copy(p, it.cur)
			for i := it.leftWidth; i < len(p); i++ {
				p[i] = value.Null
			}
			b.buf[n] = p
			n++
			it.pair = nil
			continue
		}
		if it.done {
			break
		}
		row, matches, ok, err := it.nextProbe()
		if err != nil {
			b.setRows(n)
			return n, err
		}
		if !ok {
			it.done = true
			it.cur = nil
			continue
		}
		it.cur, it.matches = row, matches
		it.matched = false
		it.mi = 0
	}
	b.setRows(n)
	return n, nil
}

// probeInput hands a join its probe rows one at a time, refilling from
// the probing operator a grown() batch at a time.
type probeInput struct {
	in  *Batch
	pos int
}

// refill reads the probe's next batch; ok=false when the input is
// exhausted or failed.
func (p *probeInput) refill(probe Iterator) (bool, error) {
	p.in = grown(p.in)
	n, err := probe.NextBatch(p.in)
	p.pos = 0
	return n > 0 && err == nil, err
}

// Close ends the run: the build table is emptied for the next run, or
// dropped with its buckets when it outgrew keepRows.
func (it *hashJoinIter) Close() {
	it.probe.Close()
	it.probeIn.in.release()
	it.cur, it.matches, it.parts = nil, nil, nil
	clear(it.pair)
	clear(it.slab)
	it.table[0].recycle()
}
