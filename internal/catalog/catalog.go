// Package catalog holds schema metadata: tables, columns, indexes, and
// the audit-specific objects (audit expressions and triggers). The
// catalog is metadata only; row data lives in internal/storage.
package catalog

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"auditdb/internal/value"
)

// Column describes one column of a table.
type Column struct {
	Name string
	Type value.Kind
}

// TableMeta describes a table's schema.
type TableMeta struct {
	Name    string
	Columns []Column
	// PrimaryKey holds ordinals into Columns. Empty means no declared key.
	PrimaryKey []int
}

// ColumnIndex returns the ordinal of the named column, or -1.
func (t *TableMeta) ColumnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// ColumnNames returns the column names in order.
func (t *TableMeta) ColumnNames() []string {
	out := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		out[i] = c.Name
	}
	return out
}

// IndexMeta describes a secondary index.
type IndexMeta struct {
	Name    string
	Table   string
	Columns []int // ordinals into the table's columns
}

// TriggerKind distinguishes classic DML triggers from SELECT triggers.
type TriggerKind uint8

// Trigger kinds.
const (
	TriggerAfterInsert TriggerKind = iota
	TriggerAfterUpdate
	TriggerAfterDelete
	TriggerOnAccess // the paper's SELECT trigger: ON ACCESS TO <audit expr>
)

// String returns the DDL-ish name of the trigger kind.
func (k TriggerKind) String() string {
	switch k {
	case TriggerAfterInsert:
		return "AFTER INSERT"
	case TriggerAfterUpdate:
		return "AFTER UPDATE"
	case TriggerAfterDelete:
		return "AFTER DELETE"
	case TriggerOnAccess:
		return "ON ACCESS"
	default:
		return "UNKNOWN"
	}
}

// TriggerMeta describes a trigger. For DML triggers Target is a table
// name; for ON ACCESS triggers Target is an audit expression name.
// Action holds the original SQL text of the body; the engine parses and
// plans it when the trigger fires.
type TriggerMeta struct {
	Name   string
	Kind   TriggerKind
	Target string
	Action string
}

// ViewMeta describes a named view; Definition is the canonical CREATE
// VIEW text. The engine expands view references at plan time.
type ViewMeta struct {
	Name       string
	Definition string
}

// AuditExprMeta describes a declared audit expression (§II-A of the
// paper): the sensitive table, its defining query text, and the
// partition-by key column. The compiled sensitive-ID set is maintained
// by internal/core; the catalog records only the declaration.
type AuditExprMeta struct {
	Name           string
	SensitiveTable string
	PartitionBy    string // column name on the sensitive table
	// Definition is the SQL text of the SELECT that defines sensitivity.
	Definition string
	// Priority is the declared triage weight (PRIORITY n); 0 = none.
	Priority int
}

// Catalog is the schema registry for one database.
type Catalog struct {
	mu       sync.RWMutex
	tables   map[string]*TableMeta
	indexes  map[string]*IndexMeta
	triggers []*TriggerMeta // sorted by name
	audits   map[string]*AuditExprMeta
	views    map[string]*ViewMeta
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  make(map[string]*TableMeta),
		indexes: make(map[string]*IndexMeta),
		audits:  make(map[string]*AuditExprMeta),
		views:   make(map[string]*ViewMeta),
	}
}

func key(name string) string { return strings.ToLower(name) }

// AppendKey appends the map key of a case-insensitive name, its
// strings.ToLower form, to buf. An ASCII name is lower-cased into buf
// itself, so a lookup m[string(AppendKey(scratch[:0], name))] over
// stack scratch allocates nothing.
func AppendKey(buf []byte, name string) []byte {
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c >= utf8.RuneSelf {
			return append(buf[:len(buf)-i], key(name)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// AddTable registers a table schema.
func (c *Catalog) AddTable(t *TableMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(t.Name)
	if _, ok := c.tables[k]; ok {
		return fmt.Errorf("table %q already exists", t.Name)
	}
	if _, ok := c.views[k]; ok {
		return fmt.Errorf("a view named %q already exists", t.Name)
	}
	seen := map[string]bool{}
	for _, col := range t.Columns {
		ck := key(col.Name)
		if seen[ck] {
			return fmt.Errorf("table %q: duplicate column %q", t.Name, col.Name)
		}
		seen[ck] = true
	}
	for _, pk := range t.PrimaryKey {
		if pk < 0 || pk >= len(t.Columns) {
			return fmt.Errorf("table %q: primary key ordinal %d out of range", t.Name, pk)
		}
	}
	c.tables[k] = t
	return nil
}

// Table looks up a table schema by name (case-insensitive).
func (c *Catalog) Table(name string) (*TableMeta, bool) {
	var scratch [64]byte
	k := AppendKey(scratch[:0], name)
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[string(k)]
	return t, ok
}

// DropTable removes a table and its dependent indexes.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.tables[k]; !ok {
		return fmt.Errorf("table %q does not exist", name)
	}
	delete(c.tables, k)
	for ik, idx := range c.indexes {
		if key(idx.Table) == k {
			delete(c.indexes, ik)
		}
	}
	return nil
}

// Tables returns all table schemas sorted by name.
func (c *Catalog) Tables() []*TableMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*TableMeta, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// AddIndex registers a secondary index.
func (c *Catalog) AddIndex(idx *IndexMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.tables[key(idx.Table)]; !ok {
		return fmt.Errorf("index %q: table %q does not exist", idx.Name, idx.Table)
	}
	k := key(idx.Name)
	if _, ok := c.indexes[k]; ok {
		return fmt.Errorf("index %q already exists", idx.Name)
	}
	c.indexes[k] = idx
	return nil
}

// Index looks up an index by name.
func (c *Catalog) Index(name string) (*IndexMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	i, ok := c.indexes[key(name)]
	return i, ok
}

// Indexes returns all secondary indexes sorted by name.
func (c *Catalog) Indexes() []*IndexMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*IndexMeta, 0, len(c.indexes))
	for _, i := range c.indexes {
		out = append(out, i)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// EqIndexedColumns returns the columns of t on which storage serves an
// equality from an index: the sole primary-key column and the column
// of every single-column secondary index.
func (c *Catalog) EqIndexedColumns(t *TableMeta) []int {
	var out []int
	if len(t.PrimaryKey) == 1 {
		out = append(out, t.PrimaryKey[0])
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, idx := range c.indexes {
		if len(idx.Columns) == 1 && strings.EqualFold(idx.Table, t.Name) {
			out = append(out, idx.Columns[0])
		}
	}
	return out
}

// AddView registers a view. The name must not collide with a table or
// another view.
func (c *Catalog) AddView(v *ViewMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(v.Name)
	if _, dup := c.views[k]; dup {
		return fmt.Errorf("view %q already exists", v.Name)
	}
	if _, dup := c.tables[k]; dup {
		return fmt.Errorf("a table named %q already exists", v.Name)
	}
	c.views[k] = v
	return nil
}

// View looks up a view by name.
func (c *Catalog) View(name string) (*ViewMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	v, ok := c.views[key(name)]
	return v, ok
}

// DropView removes a view.
func (c *Catalog) DropView(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.views[k]; !ok {
		return fmt.Errorf("view %q does not exist", name)
	}
	delete(c.views, k)
	return nil
}

// Views returns all views sorted by name.
func (c *Catalog) Views() []*ViewMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*ViewMeta, 0, len(c.views))
	for _, v := range c.views {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// DropIndex removes a secondary index from the catalog.
func (c *Catalog) DropIndex(name string) (*IndexMeta, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	idx, ok := c.indexes[k]
	if !ok {
		return nil, fmt.Errorf("index %q does not exist", name)
	}
	delete(c.indexes, k)
	return idx, nil
}

// AddTrigger registers a trigger.
func (c *Catalog) AddTrigger(t *TriggerMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.triggerAt(t.Name) >= 0 {
		return fmt.Errorf("trigger %q already exists", t.Name)
	}
	i, _ := slices.BinarySearchFunc(c.triggers, t.Name, func(x *TriggerMeta, name string) int { return strings.Compare(x.Name, name) })
	c.triggers = slices.Insert(c.triggers, i, t)
	return nil
}

// DropTrigger removes a trigger.
func (c *Catalog) DropTrigger(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	i := c.triggerAt(name)
	if i < 0 {
		return fmt.Errorf("trigger %q does not exist", name)
	}
	c.triggers = slices.Delete(c.triggers, i, i+1)
	return nil
}

// triggerAt returns the position of the named trigger, -1 if none.
func (c *Catalog) triggerAt(name string) int {
	k := key(name)
	return slices.IndexFunc(c.triggers, func(t *TriggerMeta) bool { return key(t.Name) == k })
}

// Trigger looks up a trigger by name.
func (c *Catalog) Trigger(name string) (*TriggerMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i := c.triggerAt(name); i >= 0 {
		return c.triggers[i], true
	}
	return nil, false
}

// Triggers returns all triggers sorted by name.
func (c *Catalog) Triggers() []*TriggerMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return slices.Clone(c.triggers)
}

// TriggersFor returns the triggers of the given kind whose target
// matches name, sorted by trigger name for deterministic firing order.
func (c *Catalog) TriggersFor(kind TriggerKind, target string) []*TriggerMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*TriggerMeta
	for _, t := range c.triggers {
		if t.Kind == kind && strings.EqualFold(t.Target, target) {
			out = append(out, t)
		}
	}
	return out
}

// AddAuditExpr registers an audit expression declaration.
func (c *Catalog) AddAuditExpr(a *AuditExprMeta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(a.Name)
	if _, ok := c.audits[k]; ok {
		return fmt.Errorf("audit expression %q already exists", a.Name)
	}
	if _, ok := c.tables[key(a.SensitiveTable)]; !ok {
		return fmt.Errorf("audit expression %q: sensitive table %q does not exist", a.Name, a.SensitiveTable)
	}
	c.audits[k] = a
	return nil
}

// DropAuditExpr removes an audit expression declaration.
func (c *Catalog) DropAuditExpr(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	k := key(name)
	if _, ok := c.audits[k]; !ok {
		return fmt.Errorf("audit expression %q does not exist", name)
	}
	delete(c.audits, k)
	return nil
}

// AuditExpr looks up an audit expression by name.
func (c *Catalog) AuditExpr(name string) (*AuditExprMeta, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.audits[key(name)]
	return a, ok
}

// AuditExprs returns all audit expressions sorted by name.
func (c *Catalog) AuditExprs() []*AuditExprMeta {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*AuditExprMeta, 0, len(c.audits))
	for _, a := range c.audits {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
