package storage

import "auditdb/internal/value"

// ChunkRows is the number of heap slots covered by one chunk of
// per-chunk statistics. It matches the executor's morsel size so a
// morsel claim is exactly one chunk and a pruning decision made at
// claim time holds for the whole claim.
const ChunkRows = 4096

// colStats is the zone map entry for one column of one chunk: the
// min/max over live non-null values plus null/non-null counts. Between
// rebuilds the bounds only widen and the counts only grow, so they are
// conservative supersets of the chunk's true contents — sound for
// refutation, never for proof.
type colStats struct {
	min, max       int64
	nulls, nonNull int64
}

// chunkBloom is a fixed 4 KiB Bloom filter (32768 bits, two probes per
// key). At the full chunk occupancy of 4096 keys the false-positive
// rate is ~5%; typical chunks carry fewer sensitive candidates and sit
// well below that.
type chunkBloom [512]uint64

func mix64(x uint64) uint64 {
	// splitmix64 finalizer: cheap, well-distributed 64-bit mixing.
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (b *chunkBloom) add(v int64) {
	h := mix64(uint64(v))
	h1 := uint32(h) & 32767
	h2 := uint32(h>>32) & 32767
	b[h1>>6] |= 1 << (h1 & 63)
	b[h2>>6] |= 1 << (h2 & 63)
}

func (b *chunkBloom) mayContain(v int64) bool {
	h := mix64(uint64(v))
	h1 := uint32(h) & 32767
	h2 := uint32(h>>32) & 32767
	return b[h1>>6]&(1<<(h1&63)) != 0 && b[h2>>6]&(1<<(h2&63)) != 0
}

// chunkStats carries the zone maps and sensitive-ID sketches for one
// chunk of the heap. All access happens under the owning table's lock:
// writes under t.mu.Lock (the DML paths already hold it), reads under
// t.mu.RLock (the pruned scan paths hold it for the duration of a
// decide callback).
type chunkStats struct {
	live  int64 // live rows in the chunk (exact)
	drift int64 // deletes/updates since the last rebuild
	cols  []colStats
	// blooms holds one membership sketch per registered sketch column
	// (the watched column of an audit expression). Lazily allocated.
	blooms map[int]*chunkBloom
}

// statsEnabled reports whether this table maintains chunk statistics.
func (t *Table) statsEnabled() bool { return t.intCols != nil }

// initStats sets up the zone-map machinery for a new table. Only
// I-backed columns (INT, DATE, BOOL) get min/max tracking; null counts
// are kept for every column.
func (t *Table) initStats() {
	t.intCols = make([]bool, len(t.meta.Columns))
	for i, c := range t.meta.Columns {
		switch c.Type {
		case value.KindInt, value.KindDate, value.KindBool:
			t.intCols[i] = true
		}
	}
	t.sketchCols = make(map[int]struct{})
}

// chunkOf returns the stats record covering heap position pos, growing
// the directory as the heap grows. Caller holds t.mu.Lock.
func (t *Table) chunkOf(pos int) *chunkStats {
	c := pos / ChunkRows
	for len(t.stats) <= c {
		t.stats = append(t.stats, &chunkStats{cols: make([]colStats, len(t.meta.Columns))})
	}
	return t.stats[c]
}

// foldRow widens chunk ck's zone maps and sketches with row. Monotone:
// bounds only widen, counts only grow, blooms only gain bits — so a
// fold is always sound even if the row is later deleted (drift handles
// eventual tightening). Callers maintain ck.live themselves (an update
// folds without changing the live count). Caller holds t.mu.Lock.
func (t *Table) foldRow(ck *chunkStats, row value.Row) {
	for i := range row {
		cs := &ck.cols[i]
		if row[i].Kind == value.KindNull {
			cs.nulls++
			continue
		}
		if t.intCols[i] {
			v := row[i].I
			if cs.nonNull == 0 {
				cs.min, cs.max = v, v
			} else {
				if v < cs.min {
					cs.min = v
				}
				if v > cs.max {
					cs.max = v
				}
			}
		}
		cs.nonNull++
	}
	for col, bl := range ck.blooms {
		if row[col].Kind != value.KindNull && t.intCols[col] {
			bl.add(row[col].I)
		}
	}
}

// noteDrift records a delete or overwrite in the chunk covering pos and
// rebuilds the chunk's statistics from the heap once drift reaches half
// the chunk: amortized O(1) per DML, deterministic, and bounded to one
// chunk of work under the already-held write lock. Caller holds
// t.mu.Lock.
func (t *Table) noteDrift(pos int) {
	ck := t.chunkOf(pos)
	ck.drift++
	if ck.drift*2 >= ChunkRows {
		t.rebuildChunk(pos / ChunkRows)
	}
}

// rebuildChunk recomputes chunk c's statistics exactly from the heap.
// Caller holds t.mu.Lock.
func (t *Table) rebuildChunk(c int) {
	ck := t.stats[c]
	ck.live, ck.drift = 0, 0
	for i := range ck.cols {
		ck.cols[i] = colStats{}
	}
	for col := range ck.blooms {
		ck.blooms[col] = &chunkBloom{}
	}
	lo, hi := c*ChunkRows, (c+1)*ChunkRows
	if hi > len(t.rows) {
		hi = len(t.rows)
	}
	for i := lo; i < hi; i++ {
		if t.rows[i] != nil {
			ck.live++
			t.foldRow(ck, t.rows[i])
		}
	}
}

// EnsureSketch registers col as a sketch column: every chunk gains a
// Bloom filter over the column's live values, maintained by DML and
// consulted by audit-expression pruning. Idempotent; called when an
// audit expression watching col is compiled (including DDL replay on
// recovery). Non-I-backed columns are ignored — their sketches would
// never refute anything.
func (t *Table) EnsureSketch(col int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.statsEnabled() || col < 0 || col >= len(t.meta.Columns) || !t.intCols[col] {
		return
	}
	if _, ok := t.sketchCols[col]; ok {
		return
	}
	t.sketchCols[col] = struct{}{}
	// Grow the directory to cover the current heap, then backfill.
	if len(t.rows) > 0 {
		t.chunkOf(len(t.rows) - 1)
	}
	for c, ck := range t.stats {
		if ck.blooms == nil {
			ck.blooms = make(map[int]*chunkBloom)
		}
		bl := &chunkBloom{}
		ck.blooms[col] = bl
		lo, hi := c*ChunkRows, (c+1)*ChunkRows
		if hi > len(t.rows) {
			hi = len(t.rows)
		}
		for i := lo; i < hi; i++ {
			if row := t.rows[i]; row != nil && row[col].Kind != value.KindNull {
				bl.add(row[col].I)
			}
		}
	}
}

// ensureChunkBlooms makes sure a freshly grown chunk has a bloom per
// registered sketch column. Caller holds t.mu.Lock.
func (t *Table) ensureChunkBlooms(ck *chunkStats) {
	if len(t.sketchCols) == 0 {
		return
	}
	if ck.blooms == nil {
		ck.blooms = make(map[int]*chunkBloom, len(t.sketchCols))
	}
	for col := range t.sketchCols {
		if ck.blooms[col] == nil {
			ck.blooms[col] = &chunkBloom{}
		}
	}
}

// ChunkInfo is a read-only view of one chunk's statistics, handed to
// pruning decisions while the table's read lock is held (methods must
// not be called after the scan call that produced it returns).
type ChunkInfo struct {
	t *Table
	c int
}

// Chunk returns the chunk's ordinal (heap position / ChunkRows). A
// consumer whose output buffer is smaller than a chunk sees decide
// again on mid-chunk resume; the ordinal lets it count each chunk once.
func (ci ChunkInfo) Chunk() int { return ci.c }

// Range returns the zone-map [lo, hi] for an I-backed column. ok=false
// means no bound is available (untracked column kind, no non-null
// values, or stats disabled) and the caller must assume any value.
func (ci ChunkInfo) Range(col int) (lo, hi int64, ok bool) {
	cs := &ci.t.stats[ci.c].cols[col]
	if !ci.t.intCols[col] || cs.nonNull == 0 {
		return 0, 0, false
	}
	return cs.min, cs.max, true
}

// NullCounts returns the chunk's null / non-null counts for a column.
// Between rebuilds both are monotone upper bounds, so a zero is exact:
// nulls==0 refutes IS NULL, nonNull==0 refutes any value predicate.
func (ci ChunkInfo) NullCounts(col int) (nulls, nonNull int64) {
	cs := &ci.t.stats[ci.c].cols[col]
	return cs.nulls, cs.nonNull
}

// MayContain reports whether the chunk may contain value v in sketch
// column col. Without a registered sketch it answers true — the
// conservative direction.
func (ci ChunkInfo) MayContain(col int, v int64) bool {
	bl := ci.t.stats[ci.c].blooms[col]
	if bl == nil {
		return true
	}
	return bl.mayContain(v)
}

// ScanChunkPruned is ScanChunk with a pruning hook and a chunk-aligned
// contract: each call covers at most one chunk, and before copying
// anything out of a non-empty chunk it asks decide whether the chunk is
// worth reading. decide=false advances past the chunk without copying a
// single row (the peek/skip fast path); chunks with no live rows are
// skipped silently without consulting decide. decide may be nil, which
// scans every chunk. The stats handed to decide are read under the same
// read-lock acquisition as the copy, so they are consistent with the
// rows returned.
func (t *Table) ScanChunkPruned(pos int, out []value.Row, ids []RowID, decide func(ChunkInfo) bool) (n, next int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scanPrunedLocked(pos, len(t.rows), out, ids, decide)
}

// ScanRangePruned is ScanRange with the same pruning hook and
// one-chunk-per-call contract as ScanChunkPruned. Morsel claims are
// chunk-aligned, so a claim is exactly one decide call.
func (t *Table) ScanRangePruned(pos, end int, out []value.Row, ids []RowID, decide func(ChunkInfo) bool) (n, next int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if end > len(t.rows) {
		end = len(t.rows)
	}
	return t.scanPrunedLocked(pos, end, out, ids, decide)
}

// scanPrunedLocked walks chunks from pos toward end, returning the rows
// of the first chunk that survives pruning. Caller holds t.mu.RLock.
func (t *Table) scanPrunedLocked(pos, end int, out []value.Row, ids []RowID, decide func(ChunkInfo) bool) (n, next int) {
	if !t.statsEnabled() || len(t.stats) == 0 {
		// No stats layer: degrade to a plain bounded scan.
		return t.scanWindowLocked(pos, end, out, ids)
	}
	for pos < end {
		c := pos / ChunkRows
		chunkEnd := (c + 1) * ChunkRows
		if chunkEnd > end {
			chunkEnd = end
		}
		if c >= len(t.stats) || t.stats[c].live == 0 {
			// Nothing live here (or the directory lags the heap, which
			// cannot happen for grown chunks but keeps this total).
			if c < len(t.stats) {
				pos = chunkEnd
				continue
			}
			return t.scanWindowLocked(pos, end, out, ids)
		}
		if decide != nil && !decide(ChunkInfo{t: t, c: c}) {
			pos = chunkEnd
			continue
		}
		// Copy this chunk's live rows, stopping at the chunk boundary
		// so the next call re-evaluates pruning for the next chunk.
		i := pos
		for ; i < chunkEnd && n < len(out); i++ {
			row := t.rows[i]
			if row == nil {
				continue
			}
			ids[n] = RowID(i)
			out[n] = row
			n++
		}
		if i >= end {
			return n, -1
		}
		return n, i
	}
	return n, -1
}

// scanWindowLocked copies up to len(out) live rows from heap positions
// [pos, end) and returns the count plus the resume position (-1 once
// the window is exhausted). It is the one unpruned copy loop behind
// ScanChunk, ScanRange and the stats-free pruned path. Caller holds
// t.mu.RLock and has clamped end to the heap.
func (t *Table) scanWindowLocked(pos, end int, out []value.Row, ids []RowID) (n, next int) {
	i := pos
	for ; i < end && n < len(out); i++ {
		row := t.rows[i]
		if row == nil {
			continue
		}
		ids[n] = RowID(i)
		out[n] = row
		n++
	}
	if i >= end {
		return n, -1
	}
	return n, i
}
