// Package storage implements the in-memory row store: heap tables with
// stable row IDs and tombstones, a primary-key hash index, optional
// secondary hash indexes, and visibility masks that let the offline
// auditor re-execute a query "as if" a tuple had been deleted without
// mutating the table (the paper's Definition 2.3 check).
package storage

import (
	"fmt"
	"sync"

	"auditdb/internal/catalog"
	"auditdb/internal/value"
)

// RowID identifies a row within one table for its whole lifetime.
type RowID int64

// Table is a heap of rows plus its indexes. All methods are safe for
// concurrent use; readers take the read lock for the duration of a scan
// via Snapshot.
type Table struct {
	mu   sync.RWMutex
	meta *catalog.TableMeta

	rows []value.Row // nil entry = tombstone
	live int

	pk        map[string]RowID // encoded pk -> row, when a primary key exists
	secondary map[string]*hashIndex

	// Per-chunk statistics (stats.go): one chunkStats per ChunkRows
	// heap slots, intCols marking which columns get zone maps, and the
	// set of registered sensitive-ID sketch columns.
	stats      []*chunkStats
	intCols    []bool
	sketchCols map[int]struct{}
}

type hashIndex struct {
	cols    []int
	entries map[string][]RowID
}

// NewTable creates an empty table for the given schema.
func NewTable(meta *catalog.TableMeta) *Table {
	t := &Table{meta: meta, secondary: make(map[string]*hashIndex)}
	if len(meta.PrimaryKey) > 0 {
		t.pk = make(map[string]RowID)
	}
	t.initStats()
	return t
}

// Meta returns the table's schema.
func (t *Table) Meta() *catalog.TableMeta { return t.meta }

// Len returns the number of live rows.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live
}

// Insert appends a row, enforcing arity, type and primary-key
// constraints. It returns the new row's ID.
func (t *Table) Insert(row value.Row) (RowID, error) {
	if len(row) != len(t.meta.Columns) {
		return 0, fmt.Errorf("table %s: expected %d values, got %d", t.meta.Name, len(t.meta.Columns), len(row))
	}
	coerced, err := t.coerceRow(row)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := RowID(len(t.rows))
	if t.pk != nil {
		k := value.EncodeRowKey(coerced, t.meta.PrimaryKey)
		if _, dup := t.pk[k]; dup {
			return 0, fmt.Errorf("table %s: duplicate primary key %s", t.meta.Name, pkString(coerced, t.meta.PrimaryKey))
		}
		t.pk[k] = id
	}
	t.rows = append(t.rows, coerced)
	t.live++
	ck := t.chunkOf(int(id))
	t.ensureChunkBlooms(ck)
	ck.live++
	t.foldRow(ck, coerced)
	for _, idx := range t.secondary {
		k := value.EncodeRowKey(coerced, idx.cols)
		idx.entries[k] = append(idx.entries[k], id)
	}
	return id, nil
}

func pkString(row value.Row, cols []int) string {
	vals := make([]string, len(cols))
	for i, c := range cols {
		vals[i] = row[c].String()
	}
	return fmt.Sprintf("%v", vals)
}

// coerceRow converts each value to the declared column type.
func (t *Table) coerceRow(row value.Row) (value.Row, error) {
	out := make(value.Row, len(row))
	for i, v := range row {
		c, err := value.Coerce(v, t.meta.Columns[i].Type)
		if err != nil {
			return nil, fmt.Errorf("table %s column %s: %w", t.meta.Name, t.meta.Columns[i].Name, err)
		}
		out[i] = c
	}
	return out, nil
}

// Get returns the row with the given ID, or ok=false if it was deleted
// or never existed.
func (t *Table) Get(id RowID) (value.Row, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if id < 0 || int(id) >= len(t.rows) || t.rows[id] == nil {
		return nil, false
	}
	return t.rows[id], true
}

// Delete tombstones the row with the given ID. It returns the deleted
// row so callers (triggers, undo logs) can reference OLD values.
func (t *Table) Delete(id RowID) (value.Row, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) || t.rows[id] == nil {
		return nil, fmt.Errorf("table %s: row %d does not exist", t.meta.Name, id)
	}
	old := t.rows[id]
	t.rows[id] = nil
	t.live--
	t.chunkOf(int(id)).live--
	t.noteDrift(int(id))
	if t.pk != nil {
		delete(t.pk, value.EncodeRowKey(old, t.meta.PrimaryKey))
	}
	for _, idx := range t.secondary {
		idx.remove(old, id)
	}
	return old, nil
}

// Update replaces the row with the given ID, returning the old row.
func (t *Table) Update(id RowID, row value.Row) (value.Row, error) {
	if len(row) != len(t.meta.Columns) {
		return nil, fmt.Errorf("table %s: expected %d values, got %d", t.meta.Name, len(t.meta.Columns), len(row))
	}
	coerced, err := t.coerceRow(row)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) || t.rows[id] == nil {
		return nil, fmt.Errorf("table %s: row %d does not exist", t.meta.Name, id)
	}
	old := t.rows[id]
	if t.pk != nil {
		oldK := value.EncodeRowKey(old, t.meta.PrimaryKey)
		newK := value.EncodeRowKey(coerced, t.meta.PrimaryKey)
		if oldK != newK {
			if _, dup := t.pk[newK]; dup {
				return nil, fmt.Errorf("table %s: duplicate primary key %s", t.meta.Name, pkString(coerced, t.meta.PrimaryKey))
			}
			delete(t.pk, oldK)
			t.pk[newK] = id
		}
	}
	t.rows[id] = coerced
	t.foldRow(t.chunkOf(int(id)), coerced)
	t.noteDrift(int(id))
	for _, idx := range t.secondary {
		idx.remove(old, id)
		k := value.EncodeRowKey(coerced, idx.cols)
		idx.entries[k] = append(idx.entries[k], id)
	}
	return old, nil
}

// Restore undoes a delete by reinstating the exact row at the given ID.
// It is used by the undo log; id must refer to a tombstoned slot.
func (t *Table) Restore(id RowID, row value.Row) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id < 0 || int(id) >= len(t.rows) || t.rows[id] != nil {
		return fmt.Errorf("table %s: cannot restore row %d", t.meta.Name, id)
	}
	t.rows[id] = row
	t.live++
	ck := t.chunkOf(int(id))
	t.ensureChunkBlooms(ck)
	ck.live++
	t.foldRow(ck, row)
	if t.pk != nil {
		t.pk[value.EncodeRowKey(row, t.meta.PrimaryKey)] = id
	}
	for _, idx := range t.secondary {
		k := value.EncodeRowKey(row, idx.cols)
		idx.entries[k] = append(idx.entries[k], id)
	}
	return nil
}

// LookupPK returns the row ID for a primary-key value tuple.
func (t *Table) LookupPK(key value.Row) (RowID, bool) {
	if t.pk == nil {
		return 0, false
	}
	cols := make([]int, len(key))
	for i := range key {
		cols[i] = i
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	id, ok := t.pk[value.EncodeRowKey(key, cols)]
	return id, ok
}

// AddIndex builds a secondary hash index over the given column
// ordinals.
func (t *Table) AddIndex(name string, cols []int) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.secondary[name]; dup {
		return fmt.Errorf("table %s: index %q already exists", t.meta.Name, name)
	}
	idx := &hashIndex{cols: cols, entries: make(map[string][]RowID)}
	for i, row := range t.rows {
		if row == nil {
			continue
		}
		k := value.EncodeRowKey(row, cols)
		idx.entries[k] = append(idx.entries[k], RowID(i))
	}
	t.secondary[name] = idx
	return nil
}

// LookupEq appends to dst the live row IDs whose single column col
// equals v, using the primary-key index or any single-column secondary
// index that covers col. ok=false means no usable index exists and the
// caller must scan (dst comes back unchanged). The probe key is encoded
// into stack scratch — the bytes EncodeRowKey(value.Row{v}, []int{0})
// would return — so a lookup into a reused dst allocates nothing.
func (t *Table) LookupEq(col int, v value.Value, dst []RowID) (ids []RowID, ok bool) {
	var scratch [32]byte
	key := value.EncodeKey(scratch[:0], v)
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.pk != nil && len(t.meta.PrimaryKey) == 1 && t.meta.PrimaryKey[0] == col {
		if id, hit := t.pk[string(key)]; hit {
			dst = append(dst, id)
		}
		return dst, true
	}
	for _, idx := range t.secondary {
		if len(idx.cols) != 1 || idx.cols[0] != col {
			continue
		}
		for _, id := range idx.entries[string(key)] {
			if t.rows[id] != nil {
				dst = append(dst, id)
			}
		}
		return dst, true
	}
	return dst, false
}

// DropIndex removes a secondary index from the table.
func (t *Table) DropIndex(name string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.secondary[name]; !ok {
		return fmt.Errorf("table %s: no index %q", t.meta.Name, name)
	}
	delete(t.secondary, name)
	return nil
}

// IndexLookup returns the live row IDs whose indexed columns equal key.
func (t *Table) IndexLookup(name string, key value.Row) ([]RowID, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	idx, ok := t.secondary[name]
	if !ok {
		return nil, fmt.Errorf("table %s: no index %q", t.meta.Name, name)
	}
	cols := make([]int, len(key))
	for i := range key {
		cols[i] = i
	}
	ids := idx.entries[value.EncodeRowKey(key, cols)]
	out := make([]RowID, 0, len(ids))
	for _, id := range ids {
		if t.rows[id] != nil {
			out = append(out, id)
		}
	}
	return out, nil
}

func (ix *hashIndex) remove(row value.Row, id RowID) {
	k := value.EncodeRowKey(row, ix.cols)
	ids := ix.entries[k]
	for i, x := range ids {
		if x == id {
			ids[i] = ids[len(ids)-1]
			ix.entries[k] = ids[:len(ids)-1]
			return
		}
	}
}

// Snapshot invokes fn for every live row under the read lock. fn must
// not call back into mutating table methods. If fn returns false the
// scan stops early.
func (t *Table) Snapshot(fn func(id RowID, row value.Row) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i, row := range t.rows {
		if row == nil {
			continue
		}
		if !fn(RowID(i), row) {
			return
		}
	}
}

// ScanChunk copies up to len(out) live rows starting at heap position
// pos into out, recording their IDs in ids (which must be at least as
// long as out). One call holds the read lock once, so a consumer that
// alternates ScanChunk with per-row work never pins the lock across
// expression evaluation, and memory stays bounded by the chunk size
// instead of the table size. It returns the number of rows copied and
// the position to resume from; next < 0 means the heap is exhausted.
func (t *Table) ScanChunk(pos int, out []value.Row, ids []RowID) (n, next int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.scanWindowLocked(pos, len(t.rows), out, ids)
}

// HeapBound returns the current heap extent: every live row sits at a
// position in [0, HeapBound). Morsel dispatchers carve this range into
// fixed-size claims handed to ScanRange. Rows appended after the call
// are simply not part of the scan, matching ScanChunk's snapshot-free
// semantics.
func (t *Table) HeapBound() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// ScanRange is ScanChunk restricted to heap positions [pos, end): it
// copies up to len(out) live rows from that window into out under one
// read-lock acquisition and returns the count plus the position to
// resume from; next < 0 means the window is exhausted. Parallel
// workers each own disjoint [pos, end) morsels, so concurrent calls
// never hand out the same row twice.
func (t *Table) ScanRange(pos, end int, out []value.Row, ids []RowID) (n, next int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if end > len(t.rows) {
		end = len(t.rows)
	}
	return t.scanWindowLocked(pos, end, out, ids)
}

// FetchRows copies the live rows with the given IDs into out under one
// read-lock acquisition, compacting the surviving IDs to the front of
// ids in step with out. out must be at least len(ids) long. It returns
// how many of the requested rows were live.
func (t *Table) FetchRows(ids []RowID, out []value.Row) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	n := 0
	for _, id := range ids {
		if id < 0 || int(id) >= len(t.rows) || t.rows[id] == nil {
			continue
		}
		ids[n] = id
		out[n] = t.rows[id]
		n++
	}
	return n
}

// Store owns the tables of one database.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{tables: make(map[string]*Table)}
}

// Create adds a table for the given schema.
func (s *Store) Create(meta *catalog.TableMeta) (*Table, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := lower(meta.Name)
	if _, dup := s.tables[k]; dup {
		return nil, fmt.Errorf("table %q already exists in store", meta.Name)
	}
	t := NewTable(meta)
	s.tables[k] = t
	return t, nil
}

// Table looks up a table by name.
func (s *Store) Table(name string) (*Table, bool) {
	var scratch [64]byte
	key := lowerKey(scratch[:0], name)
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[string(key)]
	return t, ok
}

// Drop removes a table and its data.
func (s *Store) Drop(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	k := lower(name)
	if _, ok := s.tables[k]; !ok {
		return fmt.Errorf("table %q does not exist in store", name)
	}
	delete(s.tables, k)
	return nil
}

// lowerKey appends s, ASCII-lower-cased, to buf: the key of a map
// keyed by lower-case table name. Indexing with m[string(key)] over
// stack scratch keeps every run's table lookup allocation-free.
func lowerKey(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

func lower(s string) string { return string(lowerKey(make([]byte, 0, len(s)), s)) }
