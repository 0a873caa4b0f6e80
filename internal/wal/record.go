// Package wal is the durability layer: a segmented, CRC32C-checked,
// length-prefixed write-ahead log with group commit, checkpointing
// that snapshots the database and truncates old segments, and a
// separate, never-truncated audit stream whose records are SHA-256
// hash-chained so tampering or truncation of the recorded trail is
// detectable after the fact (the audit register's integrity is the
// core problem of auditing: the offline verifier of record is only
// meaningful if the trail cannot be silently edited).
//
// Every record travels in a frame
//
//	uint32 payload length | uint32 CRC32C(type byte + payload) | type | payload
//
// with all integers little-endian and all encodings canonical (fixed
// width, no varints), so decode(encode(r)) == r and encode(decode(b))
// == b hold byte-for-byte — the property the fuzz tests pin down and
// the audit hash chain depends on.
package wal

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"auditdb/internal/value"
)

// RecType discriminates the record classes in the log.
type RecType uint8

// The record classes. Commit records carry the committed DML/DDL of
// one atomic unit (a top-level statement with its trigger cascade, an
// explicit transaction, or a SELECT trigger's system transaction);
// audit records carry one query's accessed-ID set for one audit
// expression and are hash-chained; checkpoint markers note where a
// snapshot anchored the log.
const (
	RecCommit     RecType = 1
	RecAudit      RecType = 2
	RecCheckpoint RecType = 3
	// RecVerdict carries one triage verdict: the offline auditor's
	// judgment of a previously recorded trigger firing. Verdicts live in
	// the audit stream and share its hash chain (Seq/Prev interleave
	// with RecAudit records), so the triage decisions themselves are
	// tamper-evident.
	RecVerdict RecType = 4
)

// OpKind discriminates the operations inside a commit record.
type OpKind uint8

// Commit-record operations. DML ops carry physical row images (old for
// delete, new for insert, both for update) so replay is deterministic
// and never re-fires triggers; DDL ops carry canonical statement text
// and replay by re-execution.
const (
	OpInsert OpKind = 1
	OpUpdate OpKind = 2
	OpDelete OpKind = 3
	OpDDL    OpKind = 4
)

// Op is one operation of a committed unit.
type Op struct {
	Kind  OpKind
	Table string    // DML ops
	Old   value.Row // delete/update image
	New   value.Row // insert/update image
	SQL   string    // DDL text
}

// Commit is the payload of a RecCommit record: the ordered operations
// of one atomic unit, trigger-cascade writes included.
type Commit struct {
	Ops []Op
}

// HashSize is the width of the audit chain's SHA-256 links.
const HashSize = sha256.Size

// Audit is the payload of a RecAudit record: one audited query's
// accesses to one audit expression, chained to its predecessor by
// Prev. A record's own link is the SHA-256 of its encoded payload
// (which includes Prev), so editing any historical record breaks every
// later link.
type Audit struct {
	Seq      uint64 // 1-based position in the chain
	Prev     [HashSize]byte
	User     string
	Expr     string
	SQL      string
	UnixNano int64
	// QID is the query ID the tracing layer assigned to the statement
	// that produced this access, joining the audit record to its trace
	// (sys.traces, sys.spans), slow-query log lines, and the client
	// response. Part of the canonical encoding, so it is covered by the
	// hash chain and cannot be silently rewritten.
	QID uint64
	IDs []value.Value
}

// Hash returns the record's chain link: SHA-256 over the canonical
// payload encoding.
func (a *Audit) Hash() [HashSize]byte {
	return sha256.Sum256(appendAudit(nil, a))
}

// Verdict outcomes. Confirmed means the firing's accessed IDs hold up
// under Definition 2.3 — exact as recorded, or reproduced by an offline
// replay; refuted means a replay cleared every candidate (the online
// operators over-approximated); skipped means the event could not be
// verified (expression dropped, statement not re-runnable) and is on
// record as unverified.
const (
	VerdictConfirmed uint8 = 1
	VerdictRefuted   uint8 = 2
	VerdictSkipped   uint8 = 3
)

// VerdictName renders a verdict outcome the way sys.verdicts and the
// metrics labels spell it.
func VerdictName(o uint8) string {
	switch o {
	case VerdictConfirmed:
		return "confirmed"
	case VerdictRefuted:
		return "refuted"
	case VerdictSkipped:
		return "skipped"
	default:
		return "unknown"
	}
}

// Verdict is the payload of a RecVerdict record: the background
// verification service's signed judgment of one audit record. It
// chains exactly like an Audit record (Prev = predecessor's hash, Seq
// interleaved in the same sequence), and additionally carries an
// HMAC-SHA256 signature under the data directory's verdict key, binding
// the verdict to the service that wrote it even if the chain is rebuilt
// wholesale.
type Verdict struct {
	Seq  uint64 // 1-based position in the (shared) audit chain
	Prev [HashSize]byte
	// AuditSeq is the chain position of the RecAudit record this verdict
	// judges.
	AuditSeq uint64
	Outcome  uint8
	User     string
	Expr     string
	// QID correlates the verdict with the firing statement's trace, like
	// Audit.QID.
	QID uint64
	// Score carries the declared PRIORITY of the event's audit
	// expression, the triage queue's key. The field keeps its float
	// encoding so records written when it held a risk score still
	// verify.
	Score float64
	// Suspicious counts the accessed IDs the verdict confirmed (0 under
	// refuted/skipped).
	Suspicious uint32
	// ElapsedNanos is the verification's wall time (0 when no query
	// ran).
	ElapsedNanos int64
	UnixNano     int64
	// Sig is HMAC-SHA256 over the canonical payload with Sig zeroed,
	// keyed by the manager's verdict key.
	Sig [HashSize]byte
}

// Hash returns the record's chain link: SHA-256 over the canonical
// payload encoding (signature included).
func (v *Verdict) Hash() [HashSize]byte {
	return sha256.Sum256(appendVerdict(nil, v))
}

// SigningBytes returns the canonical payload with the signature field
// zeroed — the bytes the HMAC covers.
func (v *Verdict) SigningBytes() []byte {
	c := *v
	c.Sig = [HashSize]byte{}
	return appendVerdict(nil, &c)
}

// Checkpoint is the payload of a RecCheckpoint marker: the audit-chain
// position at the moment a snapshot anchored the log.
type Checkpoint struct {
	AuditSeq  uint64
	AuditHead [HashSize]byte
	UnixNano  int64
}

// Record is one decoded log record; exactly one payload field is
// non-nil, matching Type.
type Record struct {
	Type       RecType
	Commit     *Commit
	Audit      *Audit
	Checkpoint *Checkpoint
	Verdict    *Verdict
}

// frameHeaderSize is payload length (4) + CRC32C (4) + type (1).
const frameHeaderSize = 9

// castagnoli is the CRC32C table (the polynomial storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends r's encoded frame to dst and returns the
// extended slice.
func AppendRecord(dst []byte, r *Record) []byte {
	var payload []byte
	switch r.Type {
	case RecCommit:
		payload = appendCommit(nil, r.Commit)
	case RecAudit:
		payload = appendAudit(nil, r.Audit)
	case RecCheckpoint:
		payload = appendCheckpoint(nil, r.Checkpoint)
	case RecVerdict:
		payload = appendVerdict(nil, r.Verdict)
	default:
		panic(fmt.Sprintf("wal: cannot encode record type %d", r.Type))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	crc := crc32.Update(0, castagnoli, []byte{byte(r.Type)})
	crc = crc32.Update(crc, castagnoli, payload)
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	dst = append(dst, byte(r.Type))
	return append(dst, payload...)
}

// DecodeRecord decodes the frame at the head of b. It returns the
// record and the frame's total size. A nil record with err == nil is
// never returned; any torn, corrupt, or structurally invalid frame
// returns an error and callers treat the log as ending there.
func DecodeRecord(b []byte) (*Record, int, error) {
	if len(b) < frameHeaderSize {
		return nil, 0, fmt.Errorf("wal: torn frame header: %d of %d bytes", len(b), frameHeaderSize)
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen > len(b)-frameHeaderSize {
		return nil, 0, fmt.Errorf("wal: torn payload: header claims %d bytes, %d available", plen, len(b)-frameHeaderSize)
	}
	wantCRC := binary.LittleEndian.Uint32(b[4:])
	typ := RecType(b[8])
	payload := b[frameHeaderSize : frameHeaderSize+plen]
	crc := crc32.Update(0, castagnoli, b[8:9])
	crc = crc32.Update(crc, castagnoli, payload)
	if crc != wantCRC {
		return nil, 0, fmt.Errorf("wal: CRC mismatch: stored %08x, computed %08x", wantCRC, crc)
	}
	rec := &Record{Type: typ}
	var err error
	d := decoder{b: payload}
	switch typ {
	case RecCommit:
		rec.Commit, err = d.commit()
	case RecAudit:
		rec.Audit, err = d.audit()
	case RecCheckpoint:
		rec.Checkpoint, err = d.checkpoint()
	case RecVerdict:
		rec.Verdict, err = d.verdict()
	default:
		return nil, 0, fmt.Errorf("wal: unknown record type %d", typ)
	}
	if err != nil {
		return nil, 0, err
	}
	if len(d.b) != 0 {
		return nil, 0, fmt.Errorf("wal: %d trailing payload bytes", len(d.b))
	}
	return rec, frameHeaderSize + plen, nil
}

// ScanBytes decodes records from the head of b until the first torn or
// corrupt frame, returning the decoded prefix, the number of valid
// bytes consumed, and the error that ended the scan (nil when b was
// consumed exactly). It never panics on arbitrary input.
func ScanBytes(b []byte) (recs []*Record, valid int, err error) {
	for valid < len(b) {
		rec, n, derr := DecodeRecord(b[valid:])
		if derr != nil {
			return recs, valid, derr
		}
		recs = append(recs, rec)
		valid += n
	}
	return recs, valid, nil
}

// ---- payload encoders ----

func appendCommit(dst []byte, c *Commit) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.Ops)))
	for i := range c.Ops {
		op := &c.Ops[i]
		dst = append(dst, byte(op.Kind))
		switch op.Kind {
		case OpInsert:
			dst = appendString(dst, op.Table)
			dst = appendRow(dst, op.New)
		case OpUpdate:
			dst = appendString(dst, op.Table)
			dst = appendRow(dst, op.Old)
			dst = appendRow(dst, op.New)
		case OpDelete:
			dst = appendString(dst, op.Table)
			dst = appendRow(dst, op.Old)
		case OpDDL:
			dst = appendString(dst, op.SQL)
		default:
			panic(fmt.Sprintf("wal: cannot encode op kind %d", op.Kind))
		}
	}
	return dst
}

func appendAudit(dst []byte, a *Audit) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, a.Seq)
	dst = append(dst, a.Prev[:]...)
	dst = appendString(dst, a.User)
	dst = appendString(dst, a.Expr)
	dst = appendString(dst, a.SQL)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(a.UnixNano))
	dst = binary.LittleEndian.AppendUint64(dst, a.QID)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(a.IDs)))
	for _, id := range a.IDs {
		dst = appendValue(dst, id)
	}
	return dst
}

func appendVerdict(dst []byte, v *Verdict) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, v.Seq)
	dst = append(dst, v.Prev[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, v.AuditSeq)
	dst = append(dst, v.Outcome)
	dst = appendString(dst, v.User)
	dst = appendString(dst, v.Expr)
	dst = binary.LittleEndian.AppendUint64(dst, v.QID)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.Score))
	dst = binary.LittleEndian.AppendUint32(dst, v.Suspicious)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.ElapsedNanos))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(v.UnixNano))
	return append(dst, v.Sig[:]...)
}

func appendCheckpoint(dst []byte, c *Checkpoint) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, c.AuditSeq)
	dst = append(dst, c.AuditHead[:]...)
	return binary.LittleEndian.AppendUint64(dst, uint64(c.UnixNano))
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendRow(dst []byte, row value.Row) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(row)))
	for _, v := range row {
		dst = appendValue(dst, v)
	}
	return dst
}

func appendValue(dst []byte, v value.Value) []byte {
	dst = append(dst, byte(v.Kind))
	switch v.Kind {
	case value.KindNull:
	case value.KindBool, value.KindInt, value.KindDate:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v.I))
	case value.KindFloat:
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v.F))
	case value.KindString:
		dst = appendString(dst, v.S)
	default:
		panic(fmt.Sprintf("wal: cannot encode value kind %d", v.Kind))
	}
	return dst
}

// ---- payload decoders (bounds-checked, allocation only for real data) ----

type decoder struct{ b []byte }

func (d *decoder) u32() (uint32, error) {
	if len(d.b) < 4 {
		return 0, fmt.Errorf("wal: short u32")
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if len(d.b) < 8 {
		return 0, fmt.Errorf("wal: short u64")
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v, nil
}

func (d *decoder) byte() (byte, error) {
	if len(d.b) < 1 {
		return 0, fmt.Errorf("wal: short byte")
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if uint32(len(d.b)) < n {
		return "", fmt.Errorf("wal: string of %d bytes, %d available", n, len(d.b))
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s, nil
}

func (d *decoder) hash() ([HashSize]byte, error) {
	var h [HashSize]byte
	if len(d.b) < HashSize {
		return h, fmt.Errorf("wal: short hash")
	}
	copy(h[:], d.b)
	d.b = d.b[HashSize:]
	return h, nil
}

func (d *decoder) val() (value.Value, error) {
	k, err := d.byte()
	if err != nil {
		return value.Null, err
	}
	switch value.Kind(k) {
	case value.KindNull:
		return value.Null, nil
	case value.KindBool:
		u, err := d.u64()
		if err != nil {
			return value.Null, err
		}
		if u > 1 {
			return value.Null, fmt.Errorf("wal: non-canonical bool %d", u)
		}
		return value.Value{Kind: value.KindBool, I: int64(u)}, nil
	case value.KindInt, value.KindDate:
		u, err := d.u64()
		if err != nil {
			return value.Null, err
		}
		return value.Value{Kind: value.Kind(k), I: int64(u)}, nil
	case value.KindFloat:
		u, err := d.u64()
		if err != nil {
			return value.Null, err
		}
		return value.Value{Kind: value.KindFloat, F: math.Float64frombits(u)}, nil
	case value.KindString:
		s, err := d.str()
		if err != nil {
			return value.Null, err
		}
		return value.Value{Kind: value.KindString, S: s}, nil
	default:
		return value.Null, fmt.Errorf("wal: unknown value kind %d", k)
	}
}

func (d *decoder) row() (value.Row, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	// A row has at least one encoded byte per column; reject counts the
	// remaining payload cannot possibly hold before allocating.
	if uint32(len(d.b)) < n {
		return nil, fmt.Errorf("wal: row of %d columns, %d bytes available", n, len(d.b))
	}
	row := make(value.Row, n)
	for i := range row {
		if row[i], err = d.val(); err != nil {
			return nil, err
		}
	}
	return row, nil
}

func (d *decoder) commit() (*Commit, error) {
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.b)) < n {
		return nil, fmt.Errorf("wal: commit of %d ops, %d bytes available", n, len(d.b))
	}
	c := &Commit{Ops: make([]Op, n)}
	for i := range c.Ops {
		op := &c.Ops[i]
		k, err := d.byte()
		if err != nil {
			return nil, err
		}
		op.Kind = OpKind(k)
		switch op.Kind {
		case OpInsert:
			if op.Table, err = d.str(); err != nil {
				return nil, err
			}
			if op.New, err = d.row(); err != nil {
				return nil, err
			}
		case OpUpdate:
			if op.Table, err = d.str(); err != nil {
				return nil, err
			}
			if op.Old, err = d.row(); err != nil {
				return nil, err
			}
			if op.New, err = d.row(); err != nil {
				return nil, err
			}
		case OpDelete:
			if op.Table, err = d.str(); err != nil {
				return nil, err
			}
			if op.Old, err = d.row(); err != nil {
				return nil, err
			}
		case OpDDL:
			if op.SQL, err = d.str(); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("wal: unknown op kind %d", k)
		}
	}
	return c, nil
}

func (d *decoder) audit() (*Audit, error) {
	a := &Audit{}
	var err error
	if a.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if a.Prev, err = d.hash(); err != nil {
		return nil, err
	}
	if a.User, err = d.str(); err != nil {
		return nil, err
	}
	if a.Expr, err = d.str(); err != nil {
		return nil, err
	}
	if a.SQL, err = d.str(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	a.UnixNano = int64(ts)
	if a.QID, err = d.u64(); err != nil {
		return nil, err
	}
	n, err := d.u32()
	if err != nil {
		return nil, err
	}
	if uint32(len(d.b)) < n {
		return nil, fmt.Errorf("wal: audit of %d ids, %d bytes available", n, len(d.b))
	}
	a.IDs = make([]value.Value, n)
	for i := range a.IDs {
		if a.IDs[i], err = d.val(); err != nil {
			return nil, err
		}
	}
	return a, nil
}

func (d *decoder) verdict() (*Verdict, error) {
	v := &Verdict{}
	var err error
	if v.Seq, err = d.u64(); err != nil {
		return nil, err
	}
	if v.Prev, err = d.hash(); err != nil {
		return nil, err
	}
	if v.AuditSeq, err = d.u64(); err != nil {
		return nil, err
	}
	if v.Outcome, err = d.byte(); err != nil {
		return nil, err
	}
	if v.Outcome < VerdictConfirmed || v.Outcome > VerdictSkipped {
		return nil, fmt.Errorf("wal: unknown verdict outcome %d", v.Outcome)
	}
	if v.User, err = d.str(); err != nil {
		return nil, err
	}
	if v.Expr, err = d.str(); err != nil {
		return nil, err
	}
	if v.QID, err = d.u64(); err != nil {
		return nil, err
	}
	bits, err := d.u64()
	if err != nil {
		return nil, err
	}
	v.Score = math.Float64frombits(bits)
	if v.Suspicious, err = d.u32(); err != nil {
		return nil, err
	}
	el, err := d.u64()
	if err != nil {
		return nil, err
	}
	v.ElapsedNanos = int64(el)
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	v.UnixNano = int64(ts)
	if v.Sig, err = d.hash(); err != nil {
		return nil, err
	}
	return v, nil
}

func (d *decoder) checkpoint() (*Checkpoint, error) {
	c := &Checkpoint{}
	var err error
	if c.AuditSeq, err = d.u64(); err != nil {
		return nil, err
	}
	if c.AuditHead, err = d.hash(); err != nil {
		return nil, err
	}
	ts, err := d.u64()
	if err != nil {
		return nil, err
	}
	c.UnixNano = int64(ts)
	return c, nil
}
