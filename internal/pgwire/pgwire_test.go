package pgwire_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/client"
	"auditdb/internal/engine"
	"auditdb/internal/pgwire"
	"auditdb/internal/pgwire/pgtest"
	"auditdb/internal/server"
)

// startPG boots a transport with both listeners (line-JSON and pg) over
// a demo-loaded engine and returns it with the pg address.
func startPG(t *testing.T, cfg server.Config) (*server.Server, string) {
	t.Helper()
	eng := engine.New()
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := server.New(eng, cfg)
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
	return srv, srv.ProtoAddr("pg").String()
}

func dialPG(t *testing.T, addr, user string) *pgtest.Client {
	t.Helper()
	c, _, err := pgtest.Dial(addr, user)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return c
}

// query runs one simple query and returns the backend burst and status.
func query(t *testing.T, c *pgtest.Client, sql string) ([]pgtest.Message, byte) {
	t.Helper()
	if err := c.Query(sql); err != nil {
		t.Fatal(err)
	}
	msgs, status, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	return msgs, status
}

func byType(msgs []pgtest.Message, typ byte) []pgtest.Message {
	var out []pgtest.Message
	for _, m := range msgs {
		if m.Type == typ {
			out = append(out, m)
		}
	}
	return out
}

func tags(t *testing.T, msgs []pgtest.Message) []string {
	t.Helper()
	var out []string
	for _, m := range byType(msgs, 'C') {
		out = append(out, pgtest.CommandTag(m.Body))
	}
	return out
}

func sqlstate(t *testing.T, msgs []pgtest.Message) string {
	t.Helper()
	errs := byType(msgs, 'E')
	if len(errs) != 1 {
		t.Fatalf("want exactly one ErrorResponse, got %d in %v", len(errs), msgs)
	}
	return pgtest.ErrorFields(errs[0].Body)['C']
}

func TestHandshake(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c, msgs, err := pgtest.Dial(addr, "dr_mallory")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if len(msgs) == 0 || msgs[0].Type != 'R' {
		t.Fatalf("first backend message = %v, want AuthenticationOk", msgs[0])
	}
	params := map[string]string{}
	for _, m := range byType(msgs, 'S') {
		body := m.Body
		i := strings.IndexByte(string(body), 0)
		params[string(body[:i])] = strings.TrimRight(string(body[i+1:]), "\x00")
	}
	if params["server_encoding"] != "UTF8" {
		t.Fatalf("server_encoding = %q, want UTF8", params["server_encoding"])
	}
	if params["session_authorization"] != "dr_mallory" {
		t.Fatalf("session_authorization = %q, want dr_mallory", params["session_authorization"])
	}
	if len(byType(msgs, 'K')) != 1 {
		t.Fatal("missing BackendKeyData")
	}
	if last := msgs[len(msgs)-1]; last.Type != 'Z' || last.Body[0] != 'I' {
		t.Fatalf("handshake did not end in ReadyForQuery(idle): %v", last)
	}
}

// TestSSLRequestRefused checks the SSLRequest → 'N' → cleartext startup
// dance libpq performs with sslmode=prefer (its default).
func TestSSLRequestRefused(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c, _, err := pgtest.Dial(addr, "probe") // throwaway to grab the type
	if err != nil {
		t.Fatal(err)
	}
	c.Close()

	raw := dialRaw(t, addr)
	b, err := raw.SendSSLRequest()
	if err != nil {
		t.Fatal(err)
	}
	if b != 'N' {
		t.Fatalf("SSLRequest answer = %q, want 'N'", b)
	}
	if err := raw.SendStartup(map[string]string{"user": "alice"}); err != nil {
		t.Fatal(err)
	}
	if _, status, err := raw.ReadUntilReady(); err != nil || status != 'I' {
		t.Fatalf("startup after SSL refusal: status=%q err=%v", status, err)
	}
	raw.Close()
}

// dialRaw opens a connection without performing the handshake.
func dialRaw(t *testing.T, addr string) *pgtest.Client {
	t.Helper()
	c, err := pgtest.DialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.SetDeadline(time.Now().Add(30 * time.Second))
	return c
}

func TestSimpleQuery(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "dr_mallory")

	msgs, status := query(t, c, "SELECT PatientID, Name FROM Patients WHERE Name = 'Alice'")
	rds := byType(msgs, 'T')
	if len(rds) != 1 {
		t.Fatalf("want one RowDescription, got %d", len(rds))
	}
	fields, err := pgtest.RowDescription(rds[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Name != "PatientID" || fields[1].Name != "Name" {
		t.Fatalf("fields = %+v", fields)
	}
	if fields[0].OID != 20 || fields[1].OID != 25 {
		t.Fatalf("OIDs = %d,%d, want int8=20 text=25", fields[0].OID, fields[1].OID)
	}
	rows := byType(msgs, 'D')
	if len(rows) != 1 {
		t.Fatalf("want 1 DataRow, got %d", len(rows))
	}
	row, err := pgtest.DataRow(rows[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(row[0]) != "1" || string(row[1]) != "Alice" {
		t.Fatalf("row = %q,%q", row[0], row[1])
	}
	if got := tags(t, msgs); len(got) != 1 || got[0] != "SELECT 1" {
		t.Fatalf("tags = %v, want [SELECT 1]", got)
	}
	// The SELECT trigger fired: the audit notice names the expression.
	notices := byType(msgs, 'N')
	if len(notices) != 1 || !strings.Contains(pgtest.ErrorFields(notices[0].Body)['M'], "Audit_Alice=1") {
		t.Fatalf("audit notice missing or wrong: %v", notices)
	}
	if status != 'I' {
		t.Fatalf("status = %q, want I", status)
	}
}

func TestEmptyAndMultiStatement(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	msgs, _ := query(t, c, "  ;  ")
	if len(byType(msgs, 'I')) != 1 {
		t.Fatalf("empty query: want EmptyQueryResponse, got %v", msgs)
	}

	msgs, status := query(t, c,
		"CREATE TABLE T1 (A INT); INSERT INTO T1 VALUES (1); INSERT INTO T1 VALUES (2); SELECT A FROM T1 ORDER BY A")
	want := []string{"CREATE TABLE", "INSERT 0 1", "INSERT 0 1", "SELECT 2"}
	got := tags(t, msgs)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("tags = %v, want %v", got, want)
	}
	if status != 'I' {
		t.Fatalf("status = %q", status)
	}

	// Each SELECT of a script is planned as itself: two SELECTs in one
	// simple query describe their own columns, on the first run and the
	// repeat alike.
	for run := 0; run < 2; run++ {
		msgs, _ = query(t, c, "SELECT A FROM T1 ORDER BY A; SELECT Name, Age FROM Patients WHERE PatientID = 2")
		var cols []string
		for _, rd := range byType(msgs, 'T') {
			fields, err := pgtest.RowDescription(rd.Body)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, f := range fields {
				names = append(names, f.Name)
			}
			cols = append(cols, strings.Join(names, ","))
		}
		if got := strings.Join(cols, " | "); got != "A | Name,Age" {
			t.Fatalf("run %d: RowDescriptions = %q, want \"A | Name,Age\"", run, got)
		}
	}

	// An error stops the script; nothing after it executes.
	msgs, _ = query(t, c, "INSERT INTO T1 VALUES (3); SELECT * FROM Nope; INSERT INTO T1 VALUES (4)")
	if got := sqlstate(t, msgs); got != "42P01" {
		t.Fatalf("sqlstate = %q, want 42P01", got)
	}
	msgs, _ = query(t, c, "SELECT A FROM T1 ORDER BY A")
	if got := tags(t, msgs); got[0] != "SELECT 3" {
		t.Fatalf("rows after failed script = %v, want SELECT 3 (no post-error execution)", got)
	}
}

func TestErrorSQLSTATEs(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	for _, tc := range []struct {
		sql, state string
	}{
		{"SELEC 1 FROM Patients", "42601"},
		{"SELECT * FROM Nope", "42P01"},
		{"SELECT NoSuchCol FROM Patients", "42703"},
		{"COMMIT", "25P01"},
	} {
		msgs, _ := query(t, c, tc.sql)
		if got := sqlstate(t, msgs); got != tc.state {
			t.Errorf("%q: sqlstate = %q, want %q", tc.sql, got, tc.state)
		}
	}
}

func TestTransactionStatus(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	_, status := query(t, c, "BEGIN")
	if status != 'T' {
		t.Fatalf("after BEGIN status = %q, want T", status)
	}
	_, status = query(t, c, "SELECT * FROM Nope")
	if status != 'E' {
		t.Fatalf("after error in txn status = %q, want E", status)
	}
	// Unlike PostgreSQL the engine keeps executing after an error, so
	// a successful statement returns the status to 'T' (documented
	// deviation).
	_, status = query(t, c, "SELECT Name FROM Patients WHERE PatientID = 2")
	if status != 'T' {
		t.Fatalf("after recovery status = %q, want T", status)
	}
	_, status = query(t, c, "COMMIT")
	if status != 'I' {
		t.Fatalf("after COMMIT status = %q, want I", status)
	}
}

func TestExtendedQuery(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "dr_mallory")

	// $2/$1 out of order, $1 repeated: argMap must route each ? to the
	// right PG parameter.
	if err := c.Parse("s1",
		"SELECT PatientID, Name FROM Patients WHERE (PatientID = $2 OR PatientID = $1) AND PatientID >= $1 ORDER BY PatientID",
		nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Describe('S', "s1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("", "s1", [][]byte{[]byte("1"), []byte("3")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, status, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(byType(msgs, '1')) != 1 || len(byType(msgs, '2')) != 1 {
		t.Fatalf("missing ParseComplete/BindComplete in %v", msgs)
	}
	oidMsgs := byType(msgs, 't')
	if len(oidMsgs) != 1 {
		t.Fatal("missing ParameterDescription")
	}
	oids, err := pgtest.ParamOIDs(oidMsgs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(oids) != 2 {
		t.Fatalf("param count = %d, want 2", len(oids))
	}
	fields, err := pgtest.RowDescription(byType(msgs, 'T')[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(fields) != 2 || fields[0].Name != "PatientID" {
		t.Fatalf("describe fields = %+v", fields)
	}
	var ids []string
	for _, m := range byType(msgs, 'D') {
		row, err := pgtest.DataRow(m.Body)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, string(row[0]))
	}
	if strings.Join(ids, ",") != "1,3" {
		t.Fatalf("ids = %v, want [1 3]", ids)
	}
	if got := tags(t, msgs); got[len(got)-1] != "SELECT 2" {
		t.Fatalf("tags = %v", got)
	}
	if status != 'I' {
		t.Fatalf("status = %q", status)
	}
	// Audited access to Alice (PatientID 1) fires over extended too.
	if n := byType(msgs, 'N'); len(n) != 1 || !strings.Contains(pgtest.ErrorFields(n[0].Body)['M'], "Audit_Alice=1") {
		t.Fatalf("audit notice = %v", n)
	}
}

func TestPortalSuspension(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	if err := c.Parse("", "SELECT PatientID FROM Patients ORDER BY PatientID", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("p1", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("p1", 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// First Execute: two rows then PortalSuspended.
	var first []pgtest.Message
	for len(byType(first, 's')) == 0 {
		m, err := c.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if m.Type == 'E' {
			t.Fatalf("error: %v", pgtest.ErrorFields(m.Body))
		}
		first = append(first, m)
	}
	if got := len(byType(first, 'D')); got != 2 {
		t.Fatalf("suspended execute rows = %d, want 2", got)
	}
	// Resume to completion.
	if err := c.Execute("p1", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	rest, status, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(byType(rest, 'D')); got != 3 {
		t.Fatalf("resumed rows = %d, want 3", got)
	}
	if got := tags(t, rest); len(got) != 1 || got[0] != "SELECT 5" {
		t.Fatalf("tags = %v, want [SELECT 5]", got)
	}
	if status != 'I' {
		t.Fatalf("status = %q", status)
	}
}

func TestExtendedErrorsAndRecovery(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	// Bind to a statement that does not exist.
	if err := c.Bind("", "ghost", nil); err != nil {
		t.Fatal(err)
	}
	// These must be skipped by error recovery, not answered.
	if err := c.Execute("", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlstate(t, msgs); got != "26000" {
		t.Fatalf("sqlstate = %q, want 26000", got)
	}

	// Wrong parameter count.
	if err := c.Parse("s2", "SELECT Name FROM Patients WHERE PatientID = $1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("", "s2", nil); err != nil { // zero params, one required
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, _, err = c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlstate(t, msgs); got != "08P01" {
		t.Fatalf("sqlstate = %q, want 08P01", got)
	}

	// Binary parameter format is refused with feature_not_supported.
	if err := c.BindBinary("", "s2", [][]byte{{0, 0, 0, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, _, err = c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if got := sqlstate(t, msgs); got != "0A000" {
		t.Fatalf("sqlstate = %q, want 0A000", got)
	}

	// The statement still works after all those failed batches.
	if err := c.Bind("", "s2", [][]byte{[]byte("2")}); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, status, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	rows := byType(msgs, 'D')
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	row, _ := pgtest.DataRow(rows[0].Body)
	if string(row[0]) != "Bob" {
		t.Fatalf("row = %q, want Bob", row[0])
	}
	if status != 'I' {
		t.Fatalf("status = %q", status)
	}
}

func TestNullParamAndResult(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	query(t, c, "CREATE TABLE NT (A INT, B VARCHAR(10))")
	if err := c.Parse("", "INSERT INTO NT VALUES ($1, $2)", []uint32{20, 25}); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("", "", [][]byte{[]byte("7"), nil}); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, _, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if got := tags(t, msgs); len(got) != 1 || got[0] != "INSERT 0 1" {
		t.Fatalf("tags = %v", got)
	}

	msgs, _ = query(t, c, "SELECT A, B FROM NT")
	row, err := pgtest.DataRow(byType(msgs, 'D')[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(row[0]) != "7" || row[1] != nil {
		t.Fatalf("row = %q/%v, want 7/NULL", row[0], row[1])
	}
}

func TestUtilityStatements(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	msgs, _ := query(t, c, "SET workers = 2")
	if got := tags(t, msgs); len(got) != 1 || got[0] != "SET" {
		t.Fatalf("tags = %v", got)
	}
	// Driver boilerplate is accepted silently.
	msgs, _ = query(t, c, "SET extra_float_digits = 3")
	if got := tags(t, msgs); len(got) != 1 || got[0] != "SET" {
		t.Fatalf("tags = %v", got)
	}
	msgs, _ = query(t, c, "SHOW workers")
	row, err := pgtest.DataRow(byType(msgs, 'D')[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(row[0]) != "2" {
		t.Fatalf("SHOW workers = %q, want 2", row[0])
	}
	msgs, _ = query(t, c, "SHOW server_version")
	row, _ = pgtest.DataRow(byType(msgs, 'D')[0].Body)
	if string(row[0]) == "" {
		t.Fatal("SHOW server_version returned nothing")
	}
	msgs, _ = query(t, c, "SHOW no_such_thing")
	if len(byType(msgs, 'E')) != 1 {
		t.Fatal("SHOW of unknown parameter did not error")
	}

	// SHOW over the extended protocol (pgx runs everything extended).
	if err := c.Parse("", "SHOW audit_all", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Describe('S', ""); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	emsgs, _, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(byType(emsgs, 'T')) != 1 || len(byType(emsgs, 'D')) != 1 {
		t.Fatalf("extended SHOW missing RowDescription/DataRow: %v", emsgs)
	}
}

// TestAuditParityAcrossProtocols runs the same audited SELECT through
// the pg front door and the line-JSON protocol against two identically
// seeded engines and requires the logged audit trail — user, query
// text, accessed PatientIDs — to come out byte-identical.
func TestAuditParityAcrossProtocols(t *testing.T) {
	const auditedQuery = "SELECT Name, Age FROM Patients WHERE Zip = '48109'"

	logOf := func(eng *engine.Engine) string {
		res, err := eng.Query("SELECT UserID, SQL, PatientID FROM Log ORDER BY PatientID")
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, row := range res.Rows {
			for _, v := range row {
				fmt.Fprintf(&b, "%v|", v)
			}
			b.WriteByte('\n')
		}
		return b.String()
	}

	// Over pgwire.
	srvPG, addr := startPG(t, server.Config{})
	pc := dialPG(t, addr, "dr_mallory")
	msgs, _ := query(t, pc, auditedQuery)
	if len(byType(msgs, 'E')) != 0 {
		t.Fatalf("pg query failed: %v", msgs)
	}
	pgLog := logOf(srvPG.Engine())

	// Over line-JSON.
	srvJSON, _ := startPG(t, server.Config{})
	jc, err := client.Dial(srvJSON.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if err := jc.SetUser("dr_mallory"); err != nil {
		t.Fatal(err)
	}
	if _, err := jc.Query(auditedQuery); err != nil {
		t.Fatal(err)
	}
	jsonLog := logOf(srvJSON.Engine())

	if pgLog == "" {
		t.Fatal("no audit rows logged over pgwire")
	}
	if pgLog != jsonLog {
		t.Fatalf("audit trails differ across protocols:\npg:\n%s\njson:\n%s", pgLog, jsonLog)
	}
}

// TestCrossProtocolDrain is the shutdown regression test: with
// statements in flight on BOTH protocols, Shutdown must let each finish
// and deliver its response before the sockets close.
func TestCrossProtocolDrain(t *testing.T) {
	srv, addr := startPG(t, server.Config{})
	seed := dialPG(t, addr, "seed")
	var ins strings.Builder
	ins.WriteString("CREATE TABLE N (X INT);")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&ins, "INSERT INTO N VALUES (%d);", i)
	}
	if msgs, _ := query(t, seed, ins.String()); len(byType(msgs, 'E')) != 0 {
		t.Fatalf("seeding failed: %v", msgs)
	}
	seed.Terminate()

	const heavy = "SELECT COUNT(*) FROM N a, N b, N c WHERE a.X = b.X AND b.X = c.X"

	pgc, _, err := pgtest.Dial(addr, "pguser")
	if err != nil {
		t.Fatal(err)
	}
	defer pgc.Close()
	pgc.SetDeadline(time.Now().Add(30 * time.Second))
	type pgOut struct {
		count  string
		status byte
		err    error
	}
	pgDone := make(chan pgOut, 1)
	go func() {
		if err := pgc.Query(heavy); err != nil {
			pgDone <- pgOut{err: err}
			return
		}
		msgs, status, err := pgc.ReadUntilReady()
		if err != nil {
			pgDone <- pgOut{err: err}
			return
		}
		rows := byType(msgs, 'D')
		if len(rows) != 1 {
			pgDone <- pgOut{err: fmt.Errorf("rows = %d", len(rows))}
			return
		}
		row, err := pgtest.DataRow(rows[0].Body)
		if err != nil {
			pgDone <- pgOut{err: err}
			return
		}
		pgDone <- pgOut{count: string(row[0]), status: status}
	}()

	jc, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	type jsonOut struct {
		res *client.Result
		err error
	}
	jsonDone := make(chan jsonOut, 1)
	go func() {
		res, err := jc.Query(heavy)
		jsonDone <- jsonOut{res, err}
	}()

	time.Sleep(20 * time.Millisecond) // let both queries reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}

	po := <-pgDone
	if po.err != nil {
		t.Fatalf("in-flight pg query was not drained: %v", po.err)
	}
	if po.count != "200" {
		t.Fatalf("pg drained result = %q, want 200", po.count)
	}
	jo := <-jsonDone
	if jo.err != nil {
		t.Fatalf("in-flight json query was not drained: %v", jo.err)
	}
	if len(jo.res.Rows) != 1 || jo.res.Rows[0][0].(int64) != 200 {
		t.Fatalf("json drained result = %v", jo.res.Rows)
	}
}

// TestConnLimitSharedAcrossProtocols checks that MaxConns is one pool
// across listeners and that a refused pg client gets a readable FATAL
// with SQLSTATE 53300.
func TestConnLimitSharedAcrossProtocols(t *testing.T) {
	_, addr := startPG(t, server.Config{MaxConns: 1})
	busy := dialPG(t, addr, "holder")
	query(t, busy, "SELECT Name FROM Patients WHERE PatientID = 2") // fully connected

	over, err := pgtest.DialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	over.SetDeadline(time.Now().Add(10 * time.Second))
	if err := over.SendStartup(map[string]string{"user": "too_many"}); err != nil {
		t.Fatal(err)
	}
	m, err := over.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if m.Type != 'E' {
		t.Fatalf("refusal message type = %q, want ErrorResponse", m.Type)
	}
	fields := pgtest.ErrorFields(m.Body)
	if fields['S'] != "FATAL" || fields['C'] != "53300" {
		t.Fatalf("refusal = %v, want FATAL 53300", fields)
	}
}

// TestPerProtocolMetrics checks the per-protocol observability
// surfaces: connection counters labeled by protocol, pgwire message
// and error counters, and per-protocol query-latency histograms — all
// visible through the same registry the JSON "stats" op and /metrics
// serve.
func TestPerProtocolMetrics(t *testing.T) {
	srv, addr := startPG(t, server.Config{})
	pc := dialPG(t, addr, "metered")
	query(t, pc, "SELECT Name FROM Patients WHERE PatientID = 2")
	query(t, pc, "SELECT * FROM Nope") // one ErrorResponse

	jc, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer jc.Close()
	if _, err := jc.Query("SELECT Name FROM Patients WHERE PatientID = 3"); err != nil {
		t.Fatal(err)
	}

	stats, err := jc.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for key, min := range map[string]int64{
		"connections_pg":        1,
		"connections_json":      1,
		"pgwire_messages_query": 2,
		"pgwire_errors":         1,
	} {
		if stats[key] < min {
			t.Errorf("stats[%q] = %d, want >= %d (stats: %v)", key, stats[key], min, stats)
		}
	}

	// The same numbers flow to the Prometheus surface, including the
	// per-protocol latency histograms.
	var prom strings.Builder
	if err := srv.Metrics().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`auditdb_server_connections_total{protocol="pg"}`,
		`auditdb_server_connections_total{protocol="json"}`,
		"auditdb_server_query_seconds_pg_",
		"auditdb_server_query_seconds_json_",
		"auditdb_pgwire_messages_total",
		"auditdb_pgwire_errors_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestQueryTimeoutOverPG checks that the transport's per-statement
// limit surfaces as SQLSTATE 57014 and the connection closes.
func TestQueryTimeoutOverPG(t *testing.T) {
	_, addr := startPG(t, server.Config{QueryTimeout: 50 * time.Millisecond})
	c := dialPG(t, addr, "slow")
	var ins strings.Builder
	ins.WriteString("CREATE TABLE M (X INT);")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&ins, "INSERT INTO M VALUES (%d);", i)
	}
	query(t, c, ins.String())

	msgs, status := query(t, c, "SELECT COUNT(*) FROM M a, M b, M c")
	if got := sqlstate(t, msgs); got != "57014" {
		t.Fatalf("sqlstate = %q, want 57014", got)
	}
	if status != 'E' {
		t.Fatalf("status = %q, want E", status)
	}
}

// TestMalformedBindCounts sends Bind messages whose int16 count fields
// decode negative (byte pattern 0xFFFF). Each must be answered with a
// protocol_violation ErrorResponse — not a makeslice panic that would
// take down the daemon.
func TestMalformedBindCounts(t *testing.T) {
	_, addr := startPG(t, server.Config{})

	u16 := func(v uint16) []byte { return []byte{byte(v >> 8), byte(v)} }
	head := append([]byte{0}, 0) // empty portal + empty statement cstrs
	cases := map[string][]byte{
		"nFmt":    append(append([]byte{}, head...), u16(0xFFFF)...),
		"nParams": append(append(append([]byte{}, head...), u16(0)...), u16(0xFFFF)...),
		"nResFmt": append(append(append(append([]byte{}, head...), u16(0)...), u16(0)...), u16(0xFFFF)...),
	}
	for name, body := range cases {
		c := dialPG(t, addr, "mallory")
		if err := c.Send('B', body); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
		msgs, _, err := c.ReadUntilReady()
		if err != nil {
			t.Fatalf("%s: connection died instead of erroring: %v", name, err)
		}
		if got := sqlstate(t, msgs); got != "08P01" {
			t.Errorf("%s: sqlstate = %q, want 08P01", name, got)
		}
		c.Terminate()
	}

	// The daemon survived all three.
	c := dialPG(t, addr, "after")
	msgs, _ := query(t, c, "SELECT Name FROM Patients WHERE PatientID = 2")
	if len(byType(msgs, 'E')) != 0 {
		t.Fatalf("server unhealthy after malformed Binds: %v", msgs)
	}
}

// TestRefuseSilentClient checks that a connection refused over the
// MaxConns limit cannot pin its goroutine forever by sending nothing:
// the refuse path runs under a deadline and closes the socket.
func TestRefuseSilentClient(t *testing.T) {
	_, addr := startPG(t, server.Config{MaxConns: 1})
	busy := dialPG(t, addr, "holder")
	query(t, busy, "SELECT Name FROM Patients WHERE PatientID = 2")

	over, err := pgtest.DialRaw(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer over.Close()
	// Send nothing. The server must give up within its 5s refuse
	// deadline; if it never does, our own 15s deadline trips instead.
	over.SetDeadline(time.Now().Add(15 * time.Second))
	start := time.Now()
	if _, err := over.ReadMessage(); err == nil {
		t.Fatal("refused silent connection got a message, want close")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("refused silent connection held open %v, want close within the 5s refuse deadline", elapsed)
	}
}

// TestSetWithSemicolonInLiteral checks that a semicolon inside a string
// literal does not defeat single-statement detection: the SET must be
// handled by the utility front door, not forwarded to the engine parser
// (which rejects SET).
func TestSetWithSemicolonInLiteral(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "ops")

	msgs, _ := query(t, c, "SET application_name = 'a;b'")
	if len(byType(msgs, 'E')) != 0 {
		t.Fatalf("SET with ';' in literal errored: %v", msgs)
	}
	if got := tags(t, msgs); len(got) != 1 || got[0] != "SET" {
		t.Fatalf("tags = %v, want [SET]", got)
	}

	// A real multi-statement script still goes to the engine whole.
	msgs, _ = query(t, c, "SET workers = 1; SELECT Name FROM Patients WHERE PatientID = 2")
	if got := sqlstate(t, msgs); got == "" {
		t.Fatalf("multi-statement SET script should reach the engine parser, got %v", msgs)
	}
}

// TestCompletedPortalReExecute re-Executes a portal that has already
// delivered every row: the second Execute must answer with a zero-row
// CommandComplete and, critically, must not repeat the audit NOTICE.
func TestCompletedPortalReExecute(t *testing.T) {
	_, addr := startPG(t, server.Config{})
	c := dialPG(t, addr, "dr_mallory")

	if err := c.Parse("", "SELECT Name FROM Patients WHERE PatientID = 1", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Bind("p", "", nil); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("p", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Execute("p", 0); err != nil {
		t.Fatal(err)
	}
	if err := c.Sync(); err != nil {
		t.Fatal(err)
	}
	msgs, status, err := c.ReadUntilReady()
	if err != nil {
		t.Fatal(err)
	}
	if len(byType(msgs, 'E')) != 0 {
		t.Fatalf("unexpected error: %v", msgs)
	}
	if got := len(byType(msgs, 'D')); got != 1 {
		t.Fatalf("DataRows = %d, want 1 (no rows re-sent)", got)
	}
	if got := len(byType(msgs, 'N')); got != 1 {
		t.Fatalf("audit notices = %d, want 1 (no duplicate on re-Execute)", got)
	}
	if got := tags(t, msgs); len(got) != 2 || got[0] != "SELECT 1" || got[1] != "SELECT 0" {
		t.Fatalf("tags = %v, want [SELECT 1, SELECT 0]", got)
	}
	if status != 'I' {
		t.Fatalf("status = %q", status)
	}
}
