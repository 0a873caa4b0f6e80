package core

import (
	"testing"

	"auditdb/internal/value"
)

// TestRecordBatchMatchesRecord: RecordBatch must be observationally
// identical to element-wise Record — same dedup, same sorted IDs —
// across integer IDs (the specialized map) and other kinds (the
// string-keyed fallback).
func TestRecordBatchMatchesRecord(t *testing.T) {
	vals := []value.Value{
		value.NewInt(3), value.NewInt(1), value.NewInt(3), // int dup
		value.NewString("x"), value.NewString("x"), // non-int dup
		value.NewInt(7),
	}
	one := NewAccessed()
	for _, v := range vals {
		one.Record("e", v)
	}
	batched := NewAccessed()
	batched.RecordBatch("e", vals)

	a, b := one.IDs("e"), batched.IDs("e")
	if len(a) != len(b) || one.Len("e") != batched.Len("e") {
		t.Fatalf("Record -> %v, RecordBatch -> %v", a, b)
	}
	for i := range a {
		if value.Compare(a[i], b[i]) != 0 {
			t.Errorf("ids[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	if got := batched.Len("e"); got != 4 {
		t.Errorf("Len = %d, want 4 (3 ints + 1 string, dups absorbed)", got)
	}
}

// TestObserveBatchMatchesObserve: multi-value batches must produce the
// same ACCESSED contents and hit count as one-value batches (the
// row-at-a-time stream) for the same values, duplicates included.
func TestObserveBatchMatchesObserve(t *testing.T) {
	f := newFixture(t)
	stream := []value.Value{
		value.NewInt(1), value.NewInt(999), value.Null,
		value.NewInt(2), value.NewInt(1), // duplicate sensitive ID
	}

	rowAcc := NewAccessed()
	rowProbe := &Probe{Expr: f.ae, Acc: rowAcc}
	rowHits := 0
	for i := range stream {
		rowHits += rowProbe.ObserveBatch(stream[i : i+1])
	}

	batchAcc := NewAccessed()
	batchProbe := &Probe{Expr: f.ae, Acc: batchAcc}
	batchHits := batchProbe.ObserveBatch(stream[:3]) + batchProbe.ObserveBatch(stream[3:])

	name := f.ae.Meta.Name
	if rowAcc.Len(name) != batchAcc.Len(name) {
		t.Errorf("Len: row %d vs batch %d", rowAcc.Len(name), batchAcc.Len(name))
	}
	a, b := rowAcc.IDs(name), batchAcc.IDs(name)
	for i := range a {
		if value.Compare(a[i], b[i]) != 0 {
			t.Errorf("ids[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	if rowHits != batchHits || rowHits != 3 {
		t.Errorf("hits: row %d vs batch %d, want 3", rowHits, batchHits)
	}
}
