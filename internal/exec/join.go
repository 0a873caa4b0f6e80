package exec

import (
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// openJoin opens the probe (left) side, then obtains the build side: a
// serial join drains its own right input (into a hash table when there
// are equi-keys, a row list otherwise); a worker's fragment probes the
// partitioned table its run built once.
func openJoin(j *plan.Join, ctx *Ctx, w *worker) (Iterator, error) {
	left, err := open(j.Left, ctx, w)
	if err != nil {
		return nil, err
	}
	rightWidth := len(j.Right.Schema())
	if w == nil && len(j.LeftKeys) == 0 {
		rows, err := collect(j.Right, ctx)
		if err != nil {
			left.Close()
			return nil, err
		}
		return &nlJoinIter{j: j, left: left, rightRows: rows, rightWidth: rightWidth, ctx: ctx}, nil
	}
	var parts []map[string]*joinBucket
	if w != nil {
		parts, err = w.run.join(j)
	} else {
		parts, err = buildJoinTable(j, ctx)
	}
	if err != nil {
		left.Close()
		return nil, err
	}
	return &hashJoinIter{
		j: j, left: left, ctx: ctx, parts: parts,
		leftWidth: len(j.Left.Schema()), rightWidth: rightWidth,
	}, nil
}

// ---- Hash join ----

// joinBucket holds the build rows for one key. The indirection lets
// the probe side append to a bucket found by a string(buf) lookup
// without re-materializing the key string (map assignment, unlike map
// lookup, cannot elide the []byte→string conversion).
type joinBucket struct {
	rows []value.Row
}

// hashJoinIter builds a hash table over the right input keyed by the
// equi-join keys and probes it with left rows, applying the residual
// predicate to each candidate pair. Left-outer rows with no surviving
// match are null-extended. Both sides move through reusable key
// scratch buffers, and pairs are emitted into one backing array per
// output batch instead of one allocation per row.
type hashJoinIter struct {
	j    *plan.Join
	left Iterator
	ctx  *Ctx
	// parts is the build table split by key hash: one partition for a
	// serial build, one per worker for the table a parallel run shares
	// (each probe then hashes its key onto a partition first).
	parts      []map[string]*joinBucket
	leftWidth  int
	rightWidth int

	cur     value.Row // current left row
	matches []value.Row
	mi      int
	matched bool
	done    bool

	keyBuf []byte
	leftIn leftInput
}

// buildJoinTable drains the right input into a one-partition table.
func buildJoinTable(j *plan.Join, ctx *Ctx) ([]map[string]*joinBucket, error) {
	right, err := open(j.Right, ctx, nil)
	if err != nil {
		return nil, err
	}
	defer right.Close()
	table := make(map[string]*joinBucket)
	var keyBuf []byte
	err = pull(right, func(rows []value.Row) error {
		for _, row := range rows {
			var null bool
			var err error
			keyBuf, null, err = appendJoinKey(keyBuf[:0], j.RightKeys, ctx, row)
			if err != nil {
				return err
			}
			if null {
				continue // NULL keys never join
			}
			if bkt, ok := table[string(keyBuf)]; ok {
				bkt.rows = append(bkt.rows, row)
			} else {
				table[string(keyBuf)] = &joinBucket{rows: []value.Row{row}}
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return []map[string]*joinBucket{table}, nil
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

// NextBatch advances the probe state machine until the output batch is
// full or the left input is exhausted. Emitted pairs are carved out of
// one backing array per batch; a candidate rejected by the residual
// predicate reuses its slot for the next candidate.
func (it *hashJoinIter) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	w := it.leftWidth + it.rightWidth
	var backing []value.Value
	var pair value.Row // allocated but not yet committed output slot
	n := 0
	takePair := func() value.Row {
		if pair == nil {
			if len(backing) < w {
				backing = make([]value.Value, (limit-n)*w)
			}
			pair = value.Row(backing[:w:w])
			backing = backing[w:]
		}
		return pair
	}
	for n < limit {
		// Drain pending matches for the current left row.
		if it.mi < len(it.matches) {
			r := it.matches[it.mi]
			it.mi++
			p := takePair()
			copy(p, it.cur)
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
			pair = nil
			continue
		}
		// Left-outer null extension, emitted exactly once per
		// unmatched left row.
		if it.cur != nil && !it.matched && it.j.Kind == plan.JoinLeft {
			it.matched = true
			p := takePair()
			copy(p, it.cur)
			for i := it.leftWidth; i < w; i++ {
				p[i] = value.Null
			}
			b.buf[n] = p
			n++
			pair = nil
			continue
		}
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
			it.cur = nil
			continue
		}
		it.cur = row
		it.matched = false
		it.mi = 0
		var null bool
		it.keyBuf, null, err = appendJoinKey(it.keyBuf[:0], it.j.LeftKeys, it.ctx, row)
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

// leftInput hands a join its probe rows one at a time, refilling from
// the left operator a grown() batch at a time.
type leftInput struct {
	in  *Batch
	pos int
}

func (l *leftInput) next(left Iterator) (value.Row, bool, error) {
	for l.in == nil || l.pos >= len(l.in.Rows) {
		l.in = grown(l.in)
		n, err := left.NextBatch(l.in)
		if err != nil {
			return nil, false, err
		}
		if n == 0 {
			return nil, false, nil
		}
		l.pos = 0
	}
	row := l.in.Rows[l.pos]
	l.pos++
	return row, true, nil
}

func (it *hashJoinIter) Close() { it.left.Close() }

// ---- Nested loops join ----

// nlJoinIter materializes the right input and scans it per left row,
// evaluating the full join condition on each pair. Used for non-equi
// conditions and cross joins.
type nlJoinIter struct {
	j          *plan.Join
	left       Iterator
	rightRows  []value.Row
	rightWidth int
	ctx        *Ctx

	cur     value.Row // current left row
	ri      int
	matched bool
	done    bool
	leftIn  leftInput
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

func (it *nlJoinIter) Close() { it.left.Close() }

func nullRow(n int) value.Row {
	row := make(value.Row, n)
	for i := range row {
		row[i] = value.Null
	}
	return row
}
