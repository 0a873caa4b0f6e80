package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func sampleVerdict(auditSeq uint64) *Verdict {
	return &Verdict{
		AuditSeq:     auditSeq,
		Outcome:      VerdictConfirmed,
		User:         "dr_mallory",
		Expr:         "Audit_Alice",
		QID:          9001,
		Score:        17.5,
		Suspicious:   1,
		ElapsedNanos: 12_345_678,
		UnixNano:     424242,
	}
}

func TestVerdictRecordRoundTrip(t *testing.T) {
	v := sampleVerdict(3)
	v.Seq = 4
	v.Prev = [HashSize]byte{1, 2, 3}
	v.Sig = [HashSize]byte{9, 8, 7}
	frame := AppendRecord(nil, &Record{Type: RecVerdict, Verdict: v})
	recs, n, err := ScanBytes(frame)
	if err != nil || n != len(frame) {
		t.Fatalf("scan: %v (consumed %d of %d)", err, n, len(frame))
	}
	if len(recs) != 1 || recs[0].Type != RecVerdict {
		t.Fatalf("got %d records, first type %v", len(recs), recs[0].Type)
	}
	if !reflect.DeepEqual(recs[0].Verdict, v) {
		t.Fatalf("roundtrip mismatch:\n got %+v\nwant %+v", recs[0].Verdict, v)
	}
}

func TestVerdictNames(t *testing.T) {
	cases := map[uint8]string{
		VerdictConfirmed: "confirmed",
		VerdictRefuted:   "refuted",
		VerdictSkipped:   "skipped",
		0:                "unknown",
	}
	for o, want := range cases {
		if got := VerdictName(o); got != want {
			t.Fatalf("VerdictName(%d) = %q, want %q", o, got, want)
		}
	}
}

// Verdicts interleave with audits on one chain: sequence numbers are
// shared, the chain verifies live and across restart, and restart
// continues the chain from the right head.
func TestVerdictChainInterleavesWithAudits(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	for i := 1; i <= 3; i++ {
		aseq, err := m.AppendAudit("u", "e", fmt.Sprintf("q%d", i), nil, uint64(i), int64(i))
		if err != nil {
			t.Fatal(err)
		}
		vseq, err := m.AppendVerdict(sampleVerdict(aseq))
		if err != nil {
			t.Fatal(err)
		}
		if vseq != aseq+1 {
			t.Fatalf("verdict seq %d does not follow audit seq %d", vseq, aseq)
		}
	}
	rep, err := m.VerifyAudit()
	if err != nil || !rep.Valid || rep.Records != 6 {
		t.Fatalf("live verify: rep=%+v err=%v", rep, err)
	}
	m.Close()

	m2, rec := openTestWAL(t, dir, Options{Sync: SyncAlways})
	defer m2.Close()
	if rec.AuditSeq != 6 {
		t.Fatalf("audit seq after restart: %d, want 6", rec.AuditSeq)
	}
	rep, err = m2.VerifyAudit()
	if err != nil || !rep.Valid || rep.Records != 6 {
		t.Fatalf("post-restart verify: rep=%+v err=%v", rep, err)
	}
	// Chain continues across both record types after restart.
	if _, err := m2.AppendAudit("u", "e", "q4", nil, 4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := m2.AppendVerdict(sampleVerdict(7)); err != nil {
		t.Fatal(err)
	}
	rep, _ = m2.VerifyAudit()
	if !rep.Valid || rep.Records != 8 {
		t.Fatalf("chain continuation: %+v", rep)
	}
}

// Editing a verdict's content and re-framing every CRC leaves the hash
// chain checkable only via the HMAC signature — rewriting the outcome
// from confirmed to refuted must be caught.
func TestVerdictForgeryDetected(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	aseq, err := m.AppendAudit("u", "e", "q1", nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendVerdict(sampleVerdict(aseq)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	seg := filepath.Join(dir, auditDirName, segmentName(1))
	b, _ := os.ReadFile(seg)
	recs, _, err := ScanBytes(b)
	if err != nil {
		t.Fatal(err)
	}
	// The adversary flips the verdict and recomputes frames AND the
	// downstream prev-hash links — everything except the HMAC, whose key
	// they do not hold.
	recs[1].Verdict.Outcome = VerdictRefuted
	recs[1].Verdict.Suspicious = 0
	var out []byte
	for _, r := range recs {
		out = AppendRecord(out, r)
	}
	if err := os.WriteFile(seg, out, 0o644); err != nil {
		t.Fatal(err)
	}

	m2, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	defer m2.Close()
	rep, err := m2.VerifyAudit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Fatal("forged verdict outcome passed verification")
	}
}

// Replacing the signing key (delete it; Open mints a fresh one) must
// invalidate every existing verdict signature.
func TestVerdictKeyReplacementDetected(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	aseq, err := m.AppendAudit("u", "e", "q1", nil, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.AppendVerdict(sampleVerdict(aseq)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	if err := os.Remove(filepath.Join(dir, verdictKeyName)); err != nil {
		t.Fatal(err)
	}
	m2, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	defer m2.Close()
	rep, err := m2.VerifyAudit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Valid {
		t.Fatal("verdicts signed with the replaced key passed verification")
	}
}

func TestVerdictKeyPersistsAcrossOpen(t *testing.T) {
	dir := t.TempDir()
	m, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	k1 := append([]byte(nil), m.verdictKey...)
	m.Close()
	m2, _ := openTestWAL(t, dir, Options{Sync: SyncAlways})
	defer m2.Close()
	if !reflect.DeepEqual(k1, m2.verdictKey) {
		t.Fatal("verdict key changed across reopen")
	}
	if len(k1) != HashSize {
		t.Fatalf("key length %d, want %d", len(k1), HashSize)
	}
}
