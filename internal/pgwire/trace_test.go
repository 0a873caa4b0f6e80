package pgwire_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/client"
	"auditdb/internal/engine"
	"auditdb/internal/pgwire"
	"auditdb/internal/pgwire/pgtest"
	"auditdb/internal/server"
	"auditdb/internal/trace"
	"auditdb/internal/wal"
)

// startTracedPG boots both listeners over a durable, demo-loaded
// engine with every statement sampled, so traces and the on-disk audit
// trail can be compared across protocols.
func startTracedPG(t *testing.T) (*engine.Engine, *server.Server, string, string) {
	t.Helper()
	dir := t.TempDir()
	eng := engine.New()
	m, rec, err := wal.Open(dir, wal.Options{Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Recover(rec); err != nil {
		t.Fatal(err)
	}
	eng.AttachWAL(m)
	t.Cleanup(func() { eng.CloseWAL() })
	eng.SetTraceSampling(1)
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.AddListener("127.0.0.1:0", pgwire.New(srv.Metrics())); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return eng, srv, srv.ProtoAddr("pg").String(), dir
}

var qidInNotice = regexp.MustCompile(` qid=(\d+)`)

// coreSpans reduces a trace to the span names the two protocols must
// agree on. The front ends differ legitimately in how text becomes a
// statement — the pg simple-query path parses scripts ("parse"), the
// line-JSON query op takes the normalized fast path ("normalize") — so
// those two names are excluded.
func coreSpans(tr *trace.Trace) map[string]bool {
	out := map[string]bool{}
	for _, sp := range tr.Spans {
		switch sp.Name {
		case "parse", "normalize":
		default:
			out[sp.Name] = true
		}
	}
	return out
}

func operatorChildren(t *testing.T, tr *trace.Trace) int {
	t.Helper()
	topExec := -1
	for _, sp := range tr.Spans {
		if sp.Name == "execute" && sp.Parent == 0 {
			topExec = sp.ID
			break
		}
	}
	if topExec < 0 {
		t.Fatalf("no top-level execute span in:\n%s", strings.Join(tr.Render(), "\n"))
	}
	n := 0
	for _, sp := range tr.Spans {
		if sp.Parent == topExec {
			n++
		}
	}
	return n
}

func transportProto(tr *trace.Trace) string {
	for _, sp := range tr.Spans {
		if sp.Name == "transport.read" {
			for _, a := range sp.Attrs {
				if a.Key == "protocol" {
					return a.Str
				}
			}
		}
	}
	return ""
}

// TestTraceCrossProtocol runs the same audited SELECT through the
// PostgreSQL wire protocol and the line-JSON protocol and checks that
// both produce equivalent span trees (same core structure, differing
// only in the front end's parse-vs-normalize step), that each protocol
// surfaces its query ID (NOTICE trailer vs response field), and that
// the two hash-chained audit records are identical apart from user and
// query ID — with the chain verifying afterwards.
func TestTraceCrossProtocol(t *testing.T) {
	eng, srv, pgAddr, dir := startTracedPG(t)
	const q = "SELECT Name FROM Patients WHERE Name = 'Alice'"

	// PostgreSQL side: the qid rides the audit NOTICE.
	pc := dialPG(t, pgAddr, "dr_mallory")
	msgs, _ := query(t, pc, q)
	var pgQID uint64
	for _, m := range byType(msgs, 'N') {
		msg := pgtest.ErrorFields(m.Body)['M']
		if !strings.HasPrefix(msg, "audit: Audit_Alice=1") {
			t.Fatalf("notice = %q", msg)
		}
		sub := qidInNotice.FindStringSubmatch(msg)
		if sub == nil {
			t.Fatalf("notice carries no qid: %q", msg)
		}
		pgQID, _ = strconv.ParseUint(sub[1], 10, 64)
	}
	if pgQID == 0 {
		t.Fatal("no audit NOTICE with a qid on the pg side")
	}

	// Line-JSON side: the qid is a response field.
	jc, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if err := jc.SetUser("nurse_bob"); err != nil {
		t.Fatal(err)
	}
	res, err := jc.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if res.QID == 0 {
		t.Fatal("line-JSON response carries no qid")
	}
	if res.Audited["Audit_Alice"] != 1 {
		t.Fatalf("audited = %v", res.Audited)
	}

	pgTr := eng.TraceRing().Get(pgQID)
	jsTr := eng.TraceRing().Get(res.QID)
	if pgTr == nil || jsTr == nil {
		t.Fatalf("traces not retained: pg=%v json=%v", pgTr, jsTr)
	}
	if got := transportProto(pgTr); got != "pg" {
		t.Errorf("pg trace transport protocol = %q", got)
	}
	if got := transportProto(jsTr); got != "json" {
		t.Errorf("json trace transport protocol = %q", got)
	}

	// Same core structure on both protocols.
	pgCore, jsCore := coreSpans(pgTr), coreSpans(jsTr)
	for _, want := range []string{
		"transport.read", "plan", "execute", "audit.fire", "wal.audit.append", "wal.commit",
	} {
		if !pgCore[want] {
			t.Errorf("pg trace missing %q:\n%s", want, strings.Join(pgTr.Render(), "\n"))
		}
		if !jsCore[want] {
			t.Errorf("json trace missing %q:\n%s", want, strings.Join(jsTr.Render(), "\n"))
		}
	}
	for name := range pgCore {
		if !jsCore[name] {
			t.Errorf("span %q only in the pg trace", name)
		}
	}
	for name := range jsCore {
		if !pgCore[name] {
			t.Errorf("span %q only in the json trace", name)
		}
	}
	if pg, js := operatorChildren(t, pgTr), operatorChildren(t, jsTr); pg == 0 || pg != js {
		t.Errorf("operator children: pg=%d json=%d, want equal and nonzero", pg, js)
	}

	// The two audit records must be the same trail entry modulo session
	// identity, each carrying its protocol's qid verbatim.
	raw, err := os.ReadFile(filepath.Join(dir, "audit", "000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := wal.ScanBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	byQID := map[uint64]*wal.Audit{}
	for _, rec := range recs {
		if rec.Type == wal.RecAudit {
			byQID[rec.Audit.QID] = rec.Audit
		}
	}
	pgRec, jsRec := byQID[pgQID], byQID[res.QID]
	if pgRec == nil || jsRec == nil {
		t.Fatalf("audit records missing: pg=%v json=%v (have %v)", pgRec, jsRec, byQID)
	}
	if pgRec.User != "dr_mallory" || jsRec.User != "nurse_bob" {
		t.Errorf("audit users = %q / %q", pgRec.User, jsRec.User)
	}
	if pgRec.Expr != jsRec.Expr || pgRec.SQL != jsRec.SQL || len(pgRec.IDs) != len(jsRec.IDs) {
		t.Errorf("audit records diverge beyond identity:\npg:   %+v\njson: %+v", pgRec, jsRec)
	}
	for i := range pgRec.IDs {
		if pgRec.IDs[i].Int() != jsRec.IDs[i].Int() {
			t.Errorf("audit IDs diverge: %v vs %v", pgRec.IDs, jsRec.IDs)
		}
	}
	rep, err := eng.VerifyAuditLog()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Valid {
		t.Fatalf("audit chain invalid: %s", rep.Reason)
	}
}

// TestSysSpansPG: psql users read the trace a NOTICE pointed them at
// with a SELECT over sys.spans and sys.traces — a plain SELECT to the
// front door, tagged SELECT n, typed over the extended protocol — while
// SHOW is left to session parameters.
func TestSysSpansPG(t *testing.T) {
	_, _, pgAddr, _ := startTracedPG(t)
	pc := dialPG(t, pgAddr, "dr_mallory")
	msgs, _ := query(t, pc, "SELECT Name FROM Patients WHERE Name = 'Alice'")
	var qid string
	for _, m := range byType(msgs, 'N') {
		if sub := qidInNotice.FindStringSubmatch(pgtest.ErrorFields(m.Body)['M']); sub != nil {
			qid = sub[1]
		}
	}
	if qid == "" {
		t.Fatal("no qid in NOTICE")
	}

	msgs, _ = query(t, pc, "SELECT trace FROM sys.spans WHERE qid = "+qid)
	rows := byType(msgs, 'D')
	if len(rows) < 2 {
		t.Fatalf("sys.spans returned %d rows", len(rows))
	}
	if got := tags(t, msgs); len(got) != 1 || got[0] != fmt.Sprintf("SELECT %d", len(rows)) {
		t.Fatalf("tags = %v", got)
	}
	first, err := pgtest.DataRow(rows[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(first[0]), "qid="+qid) {
		t.Fatalf("first trace line = %q", first[0])
	}

	msgs, _ = query(t, pc, "SELECT qid FROM sys.traces")
	listed := false
	for _, m := range byType(msgs, 'D') {
		cells, err := pgtest.DataRow(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		if string(cells[0]) == qid {
			listed = true
		}
	}
	if !listed {
		t.Fatalf("qid %s not in sys.traces", qid)
	}

	// Extended protocol: the qid is a parameter, the columns are typed.
	for _, step := range []func() error{
		func() error { return pc.Parse("", "SELECT qid, trace FROM sys.spans WHERE qid = $1", nil) },
		func() error { return pc.Bind("", "", [][]byte{[]byte(qid)}) },
		func() error { return pc.Describe('P', "") },
		func() error { return pc.Execute("", 0) },
		pc.Sync,
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	emsgs, _, err := pc.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if e := byType(emsgs, 'E'); len(e) > 0 {
		t.Fatalf("extended sys.spans: %v", pgtest.ErrorFields(e[0].Body))
	}
	desc := byType(emsgs, 'T')
	if len(desc) != 1 {
		t.Fatalf("extended sys.spans: %d RowDescriptions", len(desc))
	}
	fields, err := pgtest.RowDescription(desc[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Name != "qid" || fields[0].OID != 20 ||
		fields[1].Name != "trace" || fields[1].OID != 25 { // int8, text
		t.Fatalf("RowDescription = %+v, want qid int8, trace text", fields)
	}
	if n := len(byType(emsgs, 'D')); n != len(rows) {
		t.Fatalf("extended sys.spans returned %d rows, simple %d", n, len(rows))
	}

	// SHOW names session parameters only.
	msgs, _ = query(t, pc, "SHOW TRACES")
	if len(byType(msgs, 'E')) != 1 {
		t.Fatal("SHOW TRACES did not error")
	}

	// Bare SHOW trace still reports the session flag, not a trace.
	msgs, _ = query(t, pc, "SHOW trace")
	row, err := pgtest.DataRow(byType(msgs, 'D')[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(row[0]); got != "off" {
		t.Fatalf("SHOW trace = %q, want off", got)
	}
}
