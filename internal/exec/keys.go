package exec

import (
	"hash/crc32"
	"slices"
	"strings"

	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// ---- Key lanes and the key table ----

// The lanes a gathered key lives in.
const (
	laneInt uint8 = iota // a single-column key with an integral encoding: rowKey.i
	laneKey              // any other key: its value.EncodeKey encoding
)

// rowKey is one row's gathered key and, on a join's probe side, the
// bucket it found.
type rowKey struct {
	i   int64 // the key, on the int lane
	end int32 // where the row's encoding ends in keyLane.buf (empty on the int lane)
	// The partition and bucket a probe row's lookup found; bucket -1
	// when none.
	part, bucket int32
	lane         uint8
	null         bool // the key holds a NULL
}

// keyLane holds one batch's keys, gathered in one loop before a key
// table is touched: a join's build or probe keys, an aggregate's group
// keys or a DISTINCT aggregate's arguments, the Distinct operator's
// rows. Like the audit layer's ID sets, it gives a single-column key
// that value.IntKey holds for (INT, BOOL, DATE, an integral FLOAT) an
// int64 lane, and every other key (multi-column, string, non-integral
// float, NULL) its EncodeKey encoding. Two keys are equal exactly when
// their encodings are, and no key fits both lanes, so INT 1, FLOAT 1.0
// and TRUE are one key; a key of no columns (a join without equi-keys)
// encodes empty. A key is always encoded whole, and null records
// whether it holds a NULL: a join skips such a key, because NULL never
// joins; grouping and DISTINCT key it like any other value. The buffers
// are batch-sized and kept across runs.
type keyLane struct {
	keys []rowKey
	buf  []byte
	// err is the first key that failed to evaluate, at row errAt;
	// nothing past it is gathered. errAt is the batch length if none
	// failed.
	err   error
	errAt int
}

// gather evaluates the keys of rows. A plain column key is read
// straight from the row: first its kind and integer payload, in a loop
// that does nothing else, so the rows' cache misses overlap; then the
// keys off the int lane are filed from the rows, now in cache.
func (l *keyLane) gather(keys []plan.Expr, ctx *Ctx, rows []value.Row) {
	l.keys = sized(l.keys, len(rows))
	l.buf, l.err, l.errAt = l.buf[:0], nil, len(rows)
	var col *plan.Col
	if len(keys) == 1 {
		col, _ = keys[0].(*plan.Col)
	}
	column := col != nil
	for i, row := range rows {
		if k := &l.keys[i]; column && col.Idx < len(row) {
			k.lane, k.i = uint8(row[col.Idx].Kind), row[col.Idx].I
		}
	}
	for i, row := range rows {
		k := &l.keys[i]
		switch {
		case !column || col.Idx >= len(row):
			if err := l.eval(i, keys, ctx, row); err != nil {
				l.err, l.errAt = err, i
				return
			}
		case value.Kind(k.lane) == value.KindInt:
			k.lane, k.null, k.end = laneInt, false, int32(len(l.buf))
		default:
			l.put(i, row[col.Idx])
		}
	}
}

// put files v as row i's single-column key.
func (l *keyLane) put(i int, v value.Value) {
	k := &l.keys[i]
	if n, ok := value.IntKey(v); ok {
		k.lane, k.i = laneInt, n
	} else {
		k.lane, l.buf = laneKey, value.EncodeKey(l.buf, v)
	}
	k.null, k.end = v.IsNull(), int32(len(l.buf))
}

// eval evaluates row i's key expressions and files the key.
func (l *keyLane) eval(i int, keys []plan.Expr, ctx *Ctx, row value.Row) error {
	if len(keys) == 1 {
		v, err := keys[0].Eval(ctx.Eval, row)
		if err == nil {
			l.put(i, v)
		}
		return err
	}
	k := &l.keys[i]
	k.lane, k.null = laneKey, false
	for _, e := range keys {
		v, err := e.Eval(ctx.Eval, row)
		if err != nil {
			return err
		}
		l.buf = value.EncodeKey(l.buf, v)
		k.null = k.null || v.IsNull()
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
// key by a multiplicative hash of the int64, any other by the CRC-32 of
// its encoding.
func (l *keyLane) partition(i, n int) int {
	if k := &l.keys[i]; k.lane == laneInt {
		return int((uint64(k.i) * 0x9e3779b97f4a7c15 >> 32) % uint64(n))
	}
	return int(crc32.ChecksumIEEE(l.encoded(i)) % uint32(n))
}

// keyTable maps each key a lane gathers to a dense slot, numbered from 0
// in the order the keys were added: an int-lane key in an int64 map,
// any other by its encoding. A hash join's buckets and an aggregate's
// groups are slices indexed by slot; a DISTINCT aggregate's table and
// the Distinct operator's only ask whether a key is new.
type keyTable struct {
	ints    map[int64]int32
	encoded map[string]int32
}

// len returns the number of keys, which is the next slot.
func (t *keyTable) len() int { return len(t.ints) + len(t.encoded) }

// slot returns the slot of row i's key, and whether the key was new and
// took the next slot.
func (t *keyTable) slot(l *keyLane, i int) (int32, bool) {
	if k := &l.keys[i]; k.lane == laneInt {
		return slotOf(&t.ints, k.i, int32(t.len()))
	}
	// The string(key) lookup does not allocate; the key string only
	// materializes for a new key.
	if s, ok := t.encoded[string(l.encoded(i))]; ok {
		return s, false
	}
	return slotOf(&t.encoded, string(l.encoded(i)), int32(t.len()))
}

// slotOf returns k's slot in *m, filing k under slot next (making the
// map on first use) if *m lacks it.
func slotOf[K comparable](m *map[K]int32, k K, next int32) (int32, bool) {
	if s, ok := (*m)[k]; ok {
		return s, false
	}
	if *m == nil {
		*m = make(map[K]int32)
	}
	(*m)[k] = next
	return next, true
}

// find returns the slot of row i's key, or -1.
func (t *keyTable) find(l *keyLane, i int) int32 {
	s, ok := int32(0), false
	if k := &l.keys[i]; k.lane == laneInt {
		s, ok = t.ints[k.i]
	} else {
		s, ok = t.encoded[string(l.encoded(i))]
	}
	if !ok {
		return -1
	}
	return s
}

// merge adds src's keys to t, lane by lane, calling each with every
// key's slot in src, its slot in t, and whether it took a new slot in t.
func (t *keyTable) merge(src *keyTable, each func(from, to int32, added bool)) {
	for k, from := range src.ints {
		to, added := slotOf(&t.ints, k, int32(t.len()))
		each(from, to, added)
	}
	for k, from := range src.encoded {
		to, added := slotOf(&t.encoded, k, int32(t.len()))
		each(from, to, added)
	}
}

// keyed is a slot and its key's encoding.
type keyed struct {
	key  string
	slot int32
}

// sorted returns the table's slots in ascending order of their keys'
// EncodeKey bytes; the int lane's keys are encoded here.
func (t *keyTable) sorted() []keyed {
	dst := make([]keyed, 0, t.len())
	for k, s := range t.encoded {
		dst = append(dst, keyed{k, s})
	}
	var buf [16]byte
	for k, s := range t.ints {
		dst = append(dst, keyed{string(value.EncodeKey(buf[:0], value.NewInt(k))), s})
	}
	slices.SortFunc(dst, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	return dst
}

// recycle empties the table for the next run, or drops its maps when it
// held more than keepRows keys.
func (t *keyTable) recycle() {
	if t.len() > keepRows {
		*t = keyTable{}
		return
	}
	clear(t.ints)
	clear(t.encoded)
}
