package storage

import (
	"testing"

	"auditdb/internal/value"
)

// TestScanChunkStreamsLiveRows: chunked scanning must visit exactly
// the live rows, in heap order, across multiple bounded calls, and
// report exhaustion with next = -1.
func TestScanChunkStreamsLiveRows(t *testing.T) {
	tbl := mustTable(t)
	var ids []RowID
	for i := int64(0); i < 10; i++ {
		id, err := tbl.Insert(row(i, "p", 30+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Punch holes so chunks must skip dead slots.
	for _, id := range []RowID{ids[0], ids[4], ids[9]} {
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	out := make([]value.Row, 3)
	got := []int64{}
	gotIDs := []RowID{}
	pos := 0
	for pos >= 0 {
		n, next := tbl.ScanChunk(pos, out, make([]RowID, 3))
		for i := 0; i < n; i++ {
			got = append(got, out[i][0].Int())
		}
		chunkIDs := make([]RowID, 3)
		// Re-scan the same window to also check the reported IDs.
		m, _ := tbl.ScanChunk(pos, make([]value.Row, 3), chunkIDs)
		gotIDs = append(gotIDs, chunkIDs[:m]...)
		pos = next
	}
	want := []int64{1, 2, 3, 5, 6, 7, 8}
	if len(got) != len(want) {
		t.Fatalf("scanned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %d, want %d", i, got[i], want[i])
		}
		if gotIDs[i] != ids[want[i]] {
			t.Errorf("id %d = %d, want %d", i, gotIDs[i], ids[want[i]])
		}
	}
}

// TestScanChunkEmptyTable: an empty (or fully deleted) table reports
// exhaustion immediately.
func TestScanChunkEmptyTable(t *testing.T) {
	tbl := mustTable(t)
	n, next := tbl.ScanChunk(0, make([]value.Row, 4), make([]RowID, 4))
	if n != 0 || next != -1 {
		t.Errorf("empty scan = (%d, %d), want (0, -1)", n, next)
	}
	id, err := tbl.Insert(row(1, "p", 30))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.Delete(id); err != nil {
		t.Fatal(err)
	}
	n, next = tbl.ScanChunk(0, make([]value.Row, 4), make([]RowID, 4))
	if n != 0 || next != -1 {
		t.Errorf("all-deleted scan = (%d, %d), want (0, -1)", n, next)
	}
}

// TestScanRangeMatchesScanChunk: consecutive ScanRange windows over a
// heap with tombstones on both sides of a chunk boundary return exactly
// the rows and IDs one ScanChunk pass returns. A full out buffer hands
// back the position just past the last row copied, and a window that
// runs past the heap end is clamped to it.
func TestScanRangeMatchesScanChunk(t *testing.T) {
	tbl := mustTable(t)
	heap := ChunkRows + 100
	for i := 0; i < heap; i++ {
		if _, err := tbl.Insert(row(int64(i), "p", 30)); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []RowID{0, 5, ChunkRows - 2, ChunkRows - 1, ChunkRows, ChunkRows + 1, RowID(heap - 1)} {
		if _, err := tbl.Delete(id); err != nil {
			t.Fatal(err)
		}
	}

	wantRows := make([]value.Row, heap)
	wantIDs := make([]RowID, heap)
	n, next := tbl.ScanChunk(0, wantRows, wantIDs)
	if next != -1 || n != heap-7 {
		t.Fatalf("ScanChunk = (%d, %d), want (%d, -1)", n, next, heap-7)
	}
	wantRows, wantIDs = wantRows[:n], wantIDs[:n]

	// A window that straddles the chunk boundary and an out buffer that
	// fills mid-window on most calls; the last window ends past the heap.
	const window, bufLen = 1000, 7
	var gotRows []value.Row
	var gotIDs []RowID
	out := make([]value.Row, bufLen)
	ids := make([]RowID, bufLen)
	for start := 0; start < heap; start += window {
		end := start + window
		for pos := start; pos >= 0; {
			n, next := tbl.ScanRange(pos, end, out, ids)
			for i := 0; i < n; i++ {
				if int(ids[i]) < pos || int(ids[i]) >= end {
					t.Fatalf("ScanRange(%d, %d) returned id %d outside the window", pos, end, ids[i])
				}
			}
			if next >= 0 {
				if n != bufLen {
					t.Fatalf("ScanRange(%d, %d) resumed at %d with out only %d/%d full", pos, end, next, n, bufLen)
				}
				if next != int(ids[n-1])+1 {
					t.Fatalf("ScanRange(%d, %d) resumed at %d, want %d (just past id %d)", pos, end, next, ids[n-1]+1, ids[n-1])
				}
			}
			gotRows = append(gotRows, out[:n]...)
			gotIDs = append(gotIDs, ids[:n]...)
			pos = next
		}
	}
	if len(gotIDs) != len(wantIDs) {
		t.Fatalf("ScanRange windows returned %d rows, ScanChunk %d", len(gotIDs), len(wantIDs))
	}
	for i := range wantIDs {
		if gotIDs[i] != wantIDs[i] || gotRows[i][0].Int() != wantRows[i][0].Int() {
			t.Fatalf("row %d: ScanRange (%d, %v), ScanChunk (%d, %v)", i, gotIDs[i], gotRows[i], wantIDs[i], wantRows[i])
		}
	}

	// Past the heap end: clamped, so the tail window reports exhaustion
	// and a window wholly beyond the heap returns nothing.
	if n, next := tbl.ScanRange(heap-3, heap+1000, out, ids); n != 2 || next != -1 || ids[1] != RowID(heap-2) {
		t.Errorf("ScanRange(heap-3, heap+1000) = (%d, %d) last id %d, want (2, -1) last id %d", n, next, ids[1], heap-2)
	}
	if n, next := tbl.ScanRange(heap+5, heap+10, out, ids); n != 0 || next != -1 {
		t.Errorf("ScanRange past heap = (%d, %d), want (0, -1)", n, next)
	}
}

// TestFetchRowsCompactsDeleted: FetchRows returns the live rows for
// the requested IDs compacted to the front, skipping deleted ones.
func TestFetchRowsCompactsDeleted(t *testing.T) {
	tbl := mustTable(t)
	var ids []RowID
	for i := int64(0); i < 5; i++ {
		id, err := tbl.Insert(row(i, "p", 30+i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if _, err := tbl.Delete(ids[1]); err != nil {
		t.Fatal(err)
	}
	out := make([]value.Row, 5)
	n := tbl.FetchRows([]RowID{ids[0], ids[1], ids[3]}, out)
	if n != 2 {
		t.Fatalf("FetchRows = %d rows, want 2", n)
	}
	if out[0][0].Int() != 0 || out[1][0].Int() != 3 {
		t.Errorf("fetched %v %v, want ids 0 and 3", out[0], out[1])
	}
}

func mustTable(t *testing.T) *Table {
	t.Helper()
	s := NewStore()
	tbl, err := s.Create(patientsMeta())
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}
