package exec

import (
	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// buildJoin builds the left input and, for a serial join, the right
// one: a serial join drains one input every run (into a hash table
// when there are equi-keys, a row list otherwise) and probes with the
// other; a worker's fragment probes with its left input the
// partitioned table its run built once. A hash join counts the runs
// that built its left input into st.
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
	rightWidth := len(j.Right.Schema())
	if w == nil && len(j.LeftKeys) == 0 {
		return &nlJoinIter{j: j, left: left, right: right, rightWidth: rightWidth, ctx: ctx}, nil
	}
	it := &hashJoinIter{
		j: j, left: left, right: right, ctx: ctx, w: w, st: st, probe: left,
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

// ---- Join keys and the join table ----

// The lanes a gathered join key lives in.
const (
	laneInt  uint8 = iota // a single-column key with an integral encoding: joinKey.i
	laneKey               // any other key: its value.EncodeKey encoding
	laneNull              // a SQL NULL in the key, which never joins
)

// joinKey is one row's gathered join key and, on the probe side, the
// bucket it found.
type joinKey struct {
	i   int64 // the key, on the int lane
	end int32 // where the row's encoding ends in keyLane.buf (empty off laneKey)
	// The partition and bucket a probe row's lookup found; bucket -1
	// when none.
	part, bucket int32
	lane         uint8
}

// keyLane holds one batch's join keys, gathered in one loop before a
// join table is touched. Like the audit layer's ID sets, it gives a
// single-column key that value.IntKey holds for (INT, BOOL, DATE, an
// integral FLOAT) an int64 lane, and every other key (multi-column,
// string, non-integral float) its EncodeKey encoding. Two keys match
// exactly when their encodings are equal, and no key fits both lanes,
// so INT 1, FLOAT 1.0 and TRUE join each other and NULL joins nothing.
// The buffers are batch-sized and kept across runs.
type keyLane struct {
	keys []joinKey
	buf  []byte
	// err is the first key that failed to evaluate, at row errAt;
	// nothing past it is gathered. errAt is the batch length if none
	// failed.
	err   error
	errAt int
}

// gather evaluates the join keys of rows. A plain column key is read
// straight from the row: first its kind and integer payload, in a loop
// that does nothing else, so the rows' cache misses overlap; then the
// keys off the int lane are filed from the rows, now in cache.
func (l *keyLane) gather(keys []plan.Expr, ctx *Ctx, rows []value.Row) {
	l.keys = sized(l.keys, len(rows))
	l.buf, l.err, l.errAt = l.buf[:0], nil, len(rows)
	if col, ok := keys[0].(*plan.Col); ok && len(keys) == 1 {
		for i, row := range rows {
			if k := &l.keys[i]; col.Idx < len(row) {
				k.lane, k.i = uint8(row[col.Idx].Kind), row[col.Idx].I
			}
		}
		for i, row := range rows {
			k := &l.keys[i]
			switch {
			case col.Idx >= len(row):
				if err := l.eval(i, keys, ctx, row); err != nil {
					l.err, l.errAt = err, i
					return
				}
			case value.Kind(k.lane) == value.KindInt:
				k.lane, k.end = laneInt, int32(len(l.buf))
			default:
				l.put(i, row[col.Idx])
			}
		}
		return
	}
	for i, row := range rows {
		if err := l.eval(i, keys, ctx, row); err != nil {
			l.err, l.errAt = err, i
			return
		}
	}
}

// put files v as row i's single-column key.
func (l *keyLane) put(i int, v value.Value) {
	k := &l.keys[i]
	if n, ok := value.IntKey(v); ok {
		k.lane, k.i = laneInt, n
	} else if v.IsNull() {
		k.lane = laneNull
	} else {
		k.lane, l.buf = laneKey, value.EncodeKey(l.buf, v)
	}
	k.end = int32(len(l.buf))
}

// eval evaluates row i's key expressions. A multi-column key stops at
// its first NULL, which no later column can make join.
func (l *keyLane) eval(i int, keys []plan.Expr, ctx *Ctx, row value.Row) error {
	if len(keys) == 1 {
		v, err := keys[0].Eval(ctx.Eval, row)
		if err == nil {
			l.put(i, v)
		}
		return err
	}
	k, start := &l.keys[i], len(l.buf)
	k.lane = laneKey
	for _, e := range keys {
		v, err := e.Eval(ctx.Eval, row)
		if err != nil {
			return err
		}
		if v.IsNull() {
			k.lane, l.buf = laneNull, l.buf[:start]
			break
		}
		l.buf = value.EncodeKey(l.buf, v)
	}
	k.end = int32(len(l.buf))
	return nil
}

// encoded returns row i's key encoding (laneKey rows).
func (l *keyLane) encoded(i int) []byte {
	start := int32(0)
	if i > 0 {
		start = l.keys[i-1].end
	}
	return l.buf[start:l.keys[i].end]
}

// partition hashes row i's key onto one of n partitions: an int-lane
// key by a multiplicative hash of the int64, any other by partitionOf.
func (l *keyLane) partition(i, n int) int {
	if k := &l.keys[i]; k.lane == laneInt {
		return int((uint64(k.i) * 0x9e3779b97f4a7c15 >> 32) % uint64(n))
	}
	return partitionOf(l.encoded(i), n)
}

// joinTable is a hash join's build table: one per serial join, and one
// per partition of a parallel run's shared build. Each lane maps a key
// to a bucket, the build rows with that key in build order. Buckets
// are reused across runs while the table stays within keepRows.
type joinTable struct {
	ints    map[int64]int32
	encoded map[string]int32
	buckets [][]value.Row
	used    int // buckets holding this run's rows
	rows    int // build rows added this run
}

// add appends row to the bucket of row i's gathered key. NULL keys are
// not added: they never join.
func (t *joinTable) add(l *keyLane, i int, row value.Row) {
	var b int32
	var ok bool
	switch k := &l.keys[i]; k.lane {
	case laneNull:
		return
	case laneInt:
		if b, ok = t.ints[k.i]; !ok {
			if t.ints == nil {
				t.ints = make(map[int64]int32)
			}
			b = t.bucket()
			t.ints[k.i] = b
		}
	default:
		key := l.encoded(i)
		if b, ok = t.encoded[string(key)]; !ok {
			if t.encoded == nil {
				t.encoded = make(map[string]int32)
			}
			b = t.bucket()
			t.encoded[string(key)] = b
		}
	}
	t.buckets[b] = append(t.buckets[b], row)
	t.rows++
}

// bucket takes the next empty bucket.
func (t *joinTable) bucket() int32 {
	if t.used == len(t.buckets) {
		t.buckets = append(t.buckets, nil)
	}
	t.used++
	return int32(t.used - 1)
}

// find returns the bucket holding row i's gathered key, or -1.
func (t *joinTable) find(l *keyLane, i int) int32 {
	b, ok := int32(0), false
	switch k := &l.keys[i]; k.lane {
	case laneInt:
		b, ok = t.ints[k.i]
	case laneKey:
		b, ok = t.encoded[string(l.encoded(i))]
	}
	if !ok {
		return -1
	}
	return b
}

// recycle empties the table for the next run, or drops it when it
// outgrew keepRows.
func (t *joinTable) recycle() {
	if t.rows > keepRows {
		*t = joinTable{}
		return
	}
	for b := range t.buckets[:t.used] {
		t.buckets[b] = recycle(t.buckets[b])
	}
	clear(t.ints)
	clear(t.encoded)
	t.used, t.rows = 0, 0
}

// ---- Hash join ----

// hashJoinIter builds a hash table over one input keyed by its
// equi-join keys and probes it with the other input's rows, applying
// the residual predicate to each candidate pair. It builds the right
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

func (p *probeInput) next(probe Iterator) (value.Row, bool, error) {
	if p.in == nil || p.pos >= len(p.in.Rows) {
		if ok, err := p.refill(probe); !ok {
			return nil, false, err
		}
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
	it.cur, it.matches, it.parts = nil, nil, nil
	clear(it.pair)
	clear(it.slab)
	it.table[0].recycle()
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
