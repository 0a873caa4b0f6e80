package storage

import (
	"fmt"
	"testing"
	"testing/quick"

	"auditdb/internal/catalog"
	"auditdb/internal/value"
)

func patientsMeta() *catalog.TableMeta {
	return &catalog.TableMeta{
		Name: "Patients",
		Columns: []catalog.Column{
			{Name: "PatientID", Type: value.KindInt},
			{Name: "Name", Type: value.KindString},
			{Name: "Age", Type: value.KindInt},
		},
		PrimaryKey: []int{0},
	}
}

func row(id int64, name string, age int64) value.Row {
	return value.Row{value.NewInt(id), value.NewString(name), value.NewInt(age)}
}

func TestInsertGetDelete(t *testing.T) {
	tb := NewTable(patientsMeta())
	id, err := tb.Insert(row(1, "Alice", 30))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := tb.Get(id)
	if !ok || got[1].Str() != "Alice" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	old, err := tb.Delete(id)
	if err != nil || old[1].Str() != "Alice" {
		t.Fatalf("Delete = %v, %v", old, err)
	}
	if _, ok := tb.Get(id); ok {
		t.Error("row should be gone")
	}
	if tb.Len() != 0 {
		t.Errorf("Len after delete = %d", tb.Len())
	}
	if _, err := tb.Delete(id); err == nil {
		t.Error("double delete should fail")
	}
}

func TestInsertArityAndTypeErrors(t *testing.T) {
	tb := NewTable(patientsMeta())
	if _, err := tb.Insert(value.Row{value.NewInt(1)}); err == nil {
		t.Error("wrong arity should fail")
	}
	if _, err := tb.Insert(value.Row{value.NewString("xx"), value.NewString("a"), value.NewInt(1)}); err == nil {
		t.Error("uncoercible type should fail")
	}
}

func TestInsertCoercesTypes(t *testing.T) {
	tb := NewTable(patientsMeta())
	id, err := tb.Insert(value.Row{value.NewString("7"), value.NewString("Bob"), value.NewFloat(41.0)})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := tb.Get(id)
	if got[0].Kind != value.KindInt || got[0].Int() != 7 {
		t.Errorf("pk not coerced: %v", got[0])
	}
	if got[2].Kind != value.KindInt || got[2].Int() != 41 {
		t.Errorf("age not coerced: %v", got[2])
	}
}

func TestPrimaryKeyUniqueness(t *testing.T) {
	tb := NewTable(patientsMeta())
	if _, err := tb.Insert(row(1, "Alice", 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(row(1, "Bob", 40)); err == nil {
		t.Error("duplicate pk should fail")
	}
	// After deleting, the key becomes reusable.
	id, _ := tb.LookupPK(value.Row{value.NewInt(1)})
	if _, err := tb.Delete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Insert(row(1, "Carol", 50)); err != nil {
		t.Errorf("pk should be reusable after delete: %v", err)
	}
}

func TestLookupPK(t *testing.T) {
	tb := NewTable(patientsMeta())
	want, _ := tb.Insert(row(42, "Alice", 30))
	got, ok := tb.LookupPK(value.Row{value.NewInt(42)})
	if !ok || got != want {
		t.Fatalf("LookupPK = %v, %v; want %v", got, ok, want)
	}
	if _, ok := tb.LookupPK(value.Row{value.NewInt(43)}); ok {
		t.Error("missing key should not be found")
	}
}

func TestUpdate(t *testing.T) {
	tb := NewTable(patientsMeta())
	id, _ := tb.Insert(row(1, "Alice", 30))
	old, err := tb.Update(id, row(1, "Alice", 31))
	if err != nil || old[2].Int() != 30 {
		t.Fatalf("Update = %v, %v", old, err)
	}
	got, _ := tb.Get(id)
	if got[2].Int() != 31 {
		t.Errorf("updated age = %v", got[2])
	}
}

func TestUpdatePKChange(t *testing.T) {
	tb := NewTable(patientsMeta())
	id1, _ := tb.Insert(row(1, "Alice", 30))
	if _, err := tb.Insert(row(2, "Bob", 40)); err != nil {
		t.Fatal(err)
	}
	// Changing pk to a taken value must fail and leave state intact.
	if _, err := tb.Update(id1, row(2, "Alice", 30)); err == nil {
		t.Fatal("pk collision on update should fail")
	}
	if got, ok := tb.LookupPK(value.Row{value.NewInt(1)}); !ok || got != id1 {
		t.Error("failed update must not disturb pk index")
	}
	// Changing pk to a free value moves the index entry.
	if _, err := tb.Update(id1, row(3, "Alice", 30)); err != nil {
		t.Fatal(err)
	}
	if _, ok := tb.LookupPK(value.Row{value.NewInt(1)}); ok {
		t.Error("old pk should be gone")
	}
	if got, ok := tb.LookupPK(value.Row{value.NewInt(3)}); !ok || got != id1 {
		t.Error("new pk should resolve")
	}
}

func TestRestore(t *testing.T) {
	tb := NewTable(patientsMeta())
	id, _ := tb.Insert(row(1, "Alice", 30))
	old, _ := tb.Delete(id)
	if err := tb.Restore(id, old); err != nil {
		t.Fatal(err)
	}
	got, ok := tb.Get(id)
	if !ok || got[1].Str() != "Alice" {
		t.Fatalf("restored row = %v, %v", got, ok)
	}
	if _, ok := tb.LookupPK(value.Row{value.NewInt(1)}); !ok {
		t.Error("pk index should see restored row")
	}
	if err := tb.Restore(id, old); err == nil {
		t.Error("restoring a live slot should fail")
	}
}

func TestSecondaryIndex(t *testing.T) {
	tb := NewTable(patientsMeta())
	for i := int64(0); i < 10; i++ {
		name := "Alice"
		if i%2 == 1 {
			name = "Bob"
		}
		if _, err := tb.Insert(row(i, name, 20+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tb.AddIndex("by_name", []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AddIndex("by_name", []int{1}); err == nil {
		t.Error("duplicate index should fail")
	}
	ids, err := tb.IndexLookup("by_name", value.Row{value.NewString("Alice")})
	if err != nil || len(ids) != 5 {
		t.Fatalf("IndexLookup Alice = %v, %v", ids, err)
	}
	// Index maintenance on delete.
	if _, err := tb.Delete(ids[0]); err != nil {
		t.Fatal(err)
	}
	ids, _ = tb.IndexLookup("by_name", value.Row{value.NewString("Alice")})
	if len(ids) != 4 {
		t.Errorf("after delete, Alice count = %d", len(ids))
	}
	// Index maintenance on update (Alice -> Bob).
	if _, err := tb.Update(ids[0], row(99, "Bob", 33)); err != nil {
		t.Fatal(err)
	}
	aids, _ := tb.IndexLookup("by_name", value.Row{value.NewString("Alice")})
	bids, _ := tb.IndexLookup("by_name", value.Row{value.NewString("Bob")})
	if len(aids) != 3 || len(bids) != 6 {
		t.Errorf("after update, Alice=%d Bob=%d", len(aids), len(bids))
	}
	if _, err := tb.IndexLookup("nope", value.Row{value.NewInt(1)}); err == nil {
		t.Error("missing index should error")
	}
}

func TestSnapshotEarlyStop(t *testing.T) {
	tb := NewTable(patientsMeta())
	for i := int64(0); i < 5; i++ {
		if _, err := tb.Insert(row(i, "x", i)); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	tb.Snapshot(func(_ RowID, _ value.Row) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Errorf("early stop visited %d rows", n)
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if _, err := s.Create(patientsMeta()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(patientsMeta()); err == nil {
		t.Error("duplicate create should fail")
	}
	if _, ok := s.Table("PATIENTS"); !ok {
		t.Error("case-insensitive lookup failed")
	}
	if err := s.Drop("patients"); err != nil {
		t.Fatal(err)
	}
	if err := s.Drop("patients"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestMask(t *testing.T) {
	var nilMask *Mask
	if nilMask.Hidden("t", 0) || nilMask.HidesTable("t") {
		t.Error("nil mask must hide nothing")
	}
	m := NewMask()
	m.Hide("Patients", 3)
	if !m.Hidden("patients", 3) {
		t.Error("mask should be case-insensitive")
	}
	if m.Hidden("patients", 4) {
		t.Error("row 4 not hidden")
	}
	if !m.HidesTable("PATIENTS") || m.HidesTable("other") {
		t.Error("HidesTable wrong")
	}
	m.Unhide("patients", 3)
	if m.Hidden("patients", 3) || m.HidesTable("patients") {
		t.Error("unhide failed")
	}
}

func TestRowIDStability(t *testing.T) {
	// Property: row IDs never move; deleting other rows does not change
	// the mapping from ID to row contents.
	tb := NewTable(patientsMeta())
	ids := make([]RowID, 50)
	for i := int64(0); i < 50; i++ {
		id, err := tb.Insert(row(i, fmt.Sprintf("p%d", i), i))
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	for i := 0; i < 50; i += 2 {
		if _, err := tb.Delete(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 50; i += 2 {
		got, ok := tb.Get(ids[i])
		if !ok || got[0].Int() != int64(i) {
			t.Fatalf("row %d moved: %v, %v", i, got, ok)
		}
	}
}

func TestInsertLookupQuick(t *testing.T) {
	// Property: inserting a set of distinct keys makes each key
	// resolvable via the pk index to a row holding that key.
	f := func(keys []int16) bool {
		tb := NewTable(patientsMeta())
		seen := map[int16]bool{}
		for _, k := range keys {
			if seen[k] {
				continue
			}
			seen[k] = true
			if _, err := tb.Insert(row(int64(k), "n", 1)); err != nil {
				return false
			}
		}
		for k := range seen {
			id, ok := tb.LookupPK(value.Row{value.NewInt(int64(k))})
			if !ok {
				return false
			}
			got, ok := tb.Get(id)
			if !ok || got[0].Int() != int64(k) {
				return false
			}
		}
		return tb.Len() == len(seen)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestLookupEqScratchKey: LookupEq encodes its probe key into stack
// scratch with value.EncodeKey, so those bytes must be exactly the key
// the indexes were built with (EncodeRowKey over one column) for every
// key kind, or lookups silently miss. It appends to the caller's slice
// and, reusing it, allocates nothing for a key that fits the scratch.
func TestLookupEqScratchKey(t *testing.T) {
	long := "a string key longer than the 32 bytes of scratch"
	for _, v := range []value.Value{
		value.NewInt(42), value.NewInt(-7), value.NewString("Alice"), value.NewString(long),
		value.Null, value.NewFloat(2.5), value.NewFloat(3),
	} {
		if got, want := string(value.EncodeKey(nil, v)), value.EncodeRowKey(value.Row{v}, []int{0}); got != want {
			t.Errorf("%v: scratch key %x, EncodeRowKey %x", v, got, want)
		}
	}

	tb := NewTable(&catalog.TableMeta{
		Name: "Keys",
		Columns: []catalog.Column{
			{Name: "k", Type: value.KindInt},
			{Name: "s", Type: value.KindString},
			{Name: "f", Type: value.KindFloat},
			{Name: "n", Type: value.KindInt},
		},
		PrimaryKey: []int{0},
	})
	for i := int64(0); i < 12; i++ {
		n := value.NewInt(i % 3)
		if i%4 == 0 {
			n = value.Null
		}
		r := value.Row{value.NewInt(i), value.NewString([]string{"x", long}[i%2]), value.NewFloat(float64(i%5) / 2), n}
		if _, err := tb.Insert(r); err != nil {
			t.Fatal(err)
		}
	}
	for col, name := range []string{"", "by_s", "by_f", "by_n"} {
		if col > 0 {
			if err := tb.AddIndex(name, []int{col}); err != nil {
				t.Fatal(err)
			}
		}
	}
	probes := []struct {
		col int
		v   value.Value
		n   int
	}{
		{0, value.NewInt(5), 1}, {0, value.NewInt(99), 0},
		{1, value.NewString(long), 6}, {1, value.NewString("x"), 6},
		{2, value.NewFloat(1.5), 2}, {2, value.NewFloat(2), 2}, {2, value.NewInt(2), 2},
		{3, value.Null, 3}, {3, value.NewInt(1), 3},
	}
	sentinel := RowID(-1)
	for _, p := range probes {
		ids, ok := tb.LookupEq(p.col, p.v, []RowID{sentinel})
		if !ok || len(ids) != 1+p.n || ids[0] != sentinel {
			t.Errorf("LookupEq(col %d, %v) = %v, %v; want the sentinel then %d ids", p.col, p.v, ids, ok, p.n)
			continue
		}
		if p.col == 0 {
			continue
		}
		want, err := tb.IndexLookup([]string{"", "by_s", "by_f", "by_n"}[p.col], value.Row{p.v})
		if err != nil || fmt.Sprint(ids[1:]) != fmt.Sprint(want) {
			t.Errorf("LookupEq(col %d, %v) = %v, IndexLookup = %v, %v", p.col, p.v, ids[1:], want, err)
		}
	}
	if _, ok := tb.LookupEq(9, value.NewInt(1), nil); ok {
		t.Error("LookupEq on an unindexed column must report unusable")
	}
	buf := make([]RowID, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		buf, _ = tb.LookupEq(1, value.NewString("x"), buf[:0])
		buf, _ = tb.LookupEq(0, value.NewInt(5), buf[:0])
	})
	if allocs != 0 {
		t.Errorf("LookupEq into a reused slice allocates %.1f/op, want 0", allocs)
	}
}
