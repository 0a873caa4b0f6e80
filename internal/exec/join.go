package exec

import (
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// buildJoin builds the left input and, for a serial join, the right
// one: a serial join drains one input every run (into a hash table
// when there are equi-keys, a row list otherwise) and probes with the
// other; a worker's fragment probes with its left input the
// partitioned table its run built once.
func buildJoin(j *plan.Join, ctx *Ctx, w *worker) (Iterator, error) {
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
	rightWidth := len(j.Right.Schema())
	if w == nil && len(j.LeftKeys) == 0 {
		return &nlJoinIter{j: j, left: left, right: right, rightWidth: rightWidth, ctx: ctx}, nil
	}
	it := &hashJoinIter{
		j: j, left: left, right: right, ctx: ctx, w: w, probe: left,
		leftWidth: len(j.Left.Schema()), rightWidth: rightWidth,
	}
	// Only a serial inner join may build its left input: a left join
	// null-extends left rows, so it probes with them, and a worker's
	// fragment probes the table its run built from the right input.
	if w == nil && j.Kind == plan.JoinInner {
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

// ---- Hash join ----

// joinBucket holds the build rows for one key. The indirection lets
// the probe side append to a bucket found by a string(buf) lookup
// without re-materializing the key string (map assignment, unlike map
// lookup, cannot elide the []byte→string conversion).
type joinBucket struct {
	rows []value.Row
}

// hashJoinIter builds a hash table over one input keyed by its
// equi-join keys and probes it with the other input's rows, applying
// the residual predicate to each candidate pair. It builds the right
// input, except that a serial inner join builds its left input when
// that input's estimate is the smaller one (decided per run, in reset);
// either way every pair is laid out left|right. Left-outer rows with no
// surviving match are null-extended. Both sides move through reusable
// key scratch buffers, and pairs are carved out of slabs instead of one
// allocation per row.
type hashJoinIter struct {
	j     *plan.Join
	left  Iterator
	right Iterator // nil in a worker's fragment
	ctx   *Ctx
	w     *worker

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
	parts      []map[string]*joinBucket
	leftWidth  int
	rightWidth int

	// The serial build table, kept between runs while it stays within
	// keepRows: Close empties it and moves its buckets to free, and the
	// next build takes buckets from there.
	table map[string]*joinBucket
	built int
	free  []*joinBucket
	one   [1]map[string]*joinBucket
	rin   *Batch

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

	keyBuf  []byte
	probeIn probeInput
}

func (it *hashJoinIter) reset() error {
	it.buildLeft = estimateRows(it.leftScans, it.ctx) < estimateRows(it.rightScans, it.ctx)
	build, buildKeys := it.right, it.j.RightKeys
	it.probe, it.probeKeys = it.left, it.j.LeftKeys
	if it.buildLeft {
		build, buildKeys = it.left, it.j.LeftKeys
		it.probe, it.probeKeys = it.right, it.j.RightKeys
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
	if err := it.buildTable(build, buildKeys); err != nil {
		return err
	}
	it.one[0] = it.table
	it.parts = it.one[:]
	return nil
}

// buildTable drains the build input into the serial build table.
func (it *hashJoinIter) buildTable(build Iterator, keys []plan.Expr) error {
	defer build.Close()
	if err := build.reset(); err != nil {
		return err
	}
	if it.table == nil {
		it.table = make(map[string]*joinBucket)
	}
	err := pull(build, &it.rin, func(rows []value.Row) error {
		for _, row := range rows {
			var null bool
			var err error
			it.keyBuf, null, err = appendJoinKey(it.keyBuf[:0], keys, it.ctx, row)
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never join
			}
			it.built++
			if bkt, ok := it.table[string(it.keyBuf)]; ok {
				bkt.rows = append(bkt.rows, row)
				continue
			}
			var bkt *joinBucket
			if n := len(it.free); n > 0 {
				bkt, it.free = it.free[n-1], it.free[:n-1]
			} else {
				bkt = &joinBucket{}
			}
			bkt.rows = append(bkt.rows, row)
			it.table[string(it.keyBuf)] = bkt
		}
		return nil
	})
	it.rin.release()
	return err
}

// appendJoinKey encodes the key expressions of row into buf, reusing
// its capacity. null=true reports a SQL NULL in the key (never joins).
func appendJoinKey(buf []byte, keys []plan.Expr, ctx *Ctx, row value.Row) ([]byte, bool, error) {
	for _, k := range keys {
		v, err := k.Eval(ctx.Eval, row)
		if err != nil {
			return buf, false, err
		}
		if v.IsNull() {
			return buf, true, nil
		}
		buf = value.EncodeKey(buf, v)
	}
	return buf, false, nil
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
			if it.j.Residual != nil {
				v, err := it.j.Residual.Eval(it.ctx.Eval, p)
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
		row, ok, err := it.probeIn.next(it.probe)
		if err != nil {
			b.setRows(n)
			return n, err
		}
		if !ok {
			it.done = true
			it.cur = nil
			continue
		}
		it.cur = row
		it.matched = false
		it.mi = 0
		var null bool
		it.keyBuf, null, err = appendJoinKey(it.keyBuf[:0], it.probeKeys, it.ctx, row)
		if err != nil {
			b.setRows(n)
			return n, err
		}
		it.matches = nil
		if !null {
			table := it.parts[0]
			if len(it.parts) > 1 {
				table = it.parts[partitionOf(it.keyBuf, len(it.parts))]
			}
			if bkt, ok := table[string(it.keyBuf)]; ok {
				it.matches = bkt.rows
			}
		}
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

func (p *probeInput) next(probe Iterator) (value.Row, bool, error) {
	for p.in == nil || p.pos >= len(p.in.Rows) {
		p.in = grown(p.in)
		n, err := probe.NextBatch(p.in)
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		p.pos = 0
	}
	row := p.in.Rows[p.pos]
	p.pos++
	return row, true, nil
}

// Close ends the run: the build table is emptied for the next run, or
// dropped with its buckets when it outgrew keepRows.
func (it *hashJoinIter) Close() {
	it.probe.Close()
	it.probeIn.in.release()
	it.cur, it.matches, it.parts, it.one[0] = nil, nil, nil, nil
	clear(it.pair)
	clear(it.slab)
	if it.built > keepRows {
		it.table, it.free = nil, nil
	}
	for _, bkt := range it.table {
		bkt.rows = recycle(bkt.rows)
		it.free = append(it.free, bkt)
	}
	clear(it.table)
	it.built = 0
}

// ---- Nested loops join ----

// nlJoinIter materializes the right input and scans it per left row,
// evaluating the full join condition on each pair. Used for non-equi
// conditions and cross joins.
type nlJoinIter struct {
	j          *plan.Join
	left       Iterator
	right      Iterator
	rightRows  []value.Row
	rightWidth int
	ctx        *Ctx
	rin        *Batch

	cur     value.Row // current left row
	ri      int
	matched bool
	done    bool
	leftIn  probeInput
}

func (it *nlJoinIter) reset() error {
	if err := it.left.reset(); err != nil {
		return err
	}
	it.cur, it.ri, it.matched, it.done = nil, 0, false, false
	it.leftIn.pos = 0
	defer it.right.Close()
	if err := it.right.reset(); err != nil {
		return err
	}
	err := pull(it.right, &it.rin, func(rows []value.Row) error {
		it.rightRows = append(it.rightRows, rows...)
		return nil
	})
	it.rin.release()
	return err
}

// NextBatch resumes the pair loop where the last call stopped and
// emits up to the request ceiling.
func (it *nlJoinIter) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	n := 0
	for n < limit {
		if it.cur == nil {
			if it.done {
				break
			}
			row, ok, err := it.leftIn.next(it.left)
			if err != nil {
				b.setRows(n)
				return n, err
			}
			if !ok {
				it.done = true
				break
			}
			it.cur, it.ri, it.matched = row, 0, false
		}
		if it.ri < len(it.rightRows) {
			pair := it.cur.Concat(it.rightRows[it.ri])
			it.ri++
			if it.j.Cond != nil {
				v, err := it.j.Cond.Eval(it.ctx.Eval, pair)
				if err != nil {
					b.setRows(n)
					return n, err
				}
				if value.TriFromValue(v) != value.True {
					continue
				}
			}
			it.matched = true
			b.buf[n] = pair
			n++
			continue
		}
		// Right side exhausted for this left row: left-outer null
		// extension, exactly once per unmatched left row.
		if !it.matched && it.j.Kind == plan.JoinLeft {
			b.buf[n] = it.cur.Concat(nullRow(it.rightWidth))
			n++
		}
		it.cur = nil
	}
	b.setRows(n)
	return n, nil
}

func (it *nlJoinIter) Close() {
	it.left.Close()
	it.leftIn.in.release()
	it.cur = nil
	it.rightRows = recycle(it.rightRows)
}

func nullRow(n int) value.Row {
	row := make(value.Row, n)
	for i := range row {
		row[i] = value.Null
	}
	return row
}
