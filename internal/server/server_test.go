package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/client"
	"auditdb/internal/engine"
	"auditdb/internal/wire"
)

func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	eng := engine.New()
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	cfg.Addr = "127.0.0.1:0"
	srv := New(eng, cfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

func dial(t *testing.T, srv *Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestConcurrentSessionAttribution drives 8 concurrent client sessions
// with distinct users against one server and verifies that every
// trigger-logged row attributes the access to the session that made it
// — zero cross-session USERID() bleed (run under -race in CI).
func TestConcurrentSessionAttribution(t *testing.T) {
	srv := startServer(t, Config{})
	const users = 8
	const queriesPerUser = 20

	var wg sync.WaitGroup
	errs := make(chan error, users)
	for u := 0; u < users; u++ {
		wg.Add(1)
		go func(u int) {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			if err := c.SetUser(fmt.Sprintf("user%d", u)); err != nil {
				errs <- err
				return
			}
			for i := 0; i < queriesPerUser; i++ {
				tag := (u+1)*1000000 + i
				res, err := c.Query(fmt.Sprintf(
					"SELECT Name FROM Patients WHERE Name = 'Alice' AND %d = %d", tag, tag))
				if err != nil {
					errs <- fmt.Errorf("user%d query %d: %w", u, i, err)
					return
				}
				if res.Audited["audit_alice"]+res.Audited["Audit_Alice"] == 0 {
					errs <- fmt.Errorf("user%d query %d: no audited access reported: %v", u, i, res.Audited)
					return
				}
			}
		}(u)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	admin := dial(t, srv)
	res, err := admin.Query("SELECT UserID, SQL FROM Log")
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(res.Rows), users*queriesPerUser; got != want {
		t.Fatalf("Log rows = %d, want %d", got, want)
	}
	for _, row := range res.Rows {
		user, sql := row[0].(string), row[1].(string)
		// Recover the tagging user from the SQL text and compare.
		var tag int
		if _, err := fmt.Sscanf(sql[strings.LastIndex(sql, "AND ")+4:], "%d", &tag); err != nil {
			t.Fatalf("cannot parse tag from logged SQL %q", sql)
		}
		want := fmt.Sprintf("user%d", tag/1000000-1)
		if user != want {
			t.Fatalf("cross-session USERID bleed: %q logged as %q (want %q)", sql, user, want)
		}
	}

	stats, err := admin.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if stats["triggers_fired"] < int64(users*queriesPerUser) {
		t.Fatalf("triggers_fired = %d, want >= %d", stats["triggers_fired"], users*queriesPerUser)
	}
	if stats["sessions"] < int64(users) {
		t.Fatalf("sessions = %d, want >= %d", stats["sessions"], users)
	}
}

// TestGracefulShutdownDrains checks that Shutdown lets in-flight
// statements finish and deliver their responses.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := startServer(t, Config{})
	seed := dial(t, srv)
	// A few hundred rows make the 3-way cross join below take real
	// work without being slow enough to flake.
	var ins strings.Builder
	ins.WriteString("CREATE TABLE N (X INT);")
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&ins, "INSERT INTO N VALUES (%d);", i)
	}
	if _, err := seed.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}

	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	type outcome struct {
		res *client.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := c.Query("SELECT COUNT(*) FROM N a, N b, N c WHERE a.X = b.X AND b.X = c.X")
		done <- outcome{res, err}
	}()
	time.Sleep(10 * time.Millisecond) // let the query reach the server

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	o := <-done
	if o.err != nil {
		t.Fatalf("in-flight query was not drained: %v", o.err)
	}
	if len(o.res.Rows) != 1 || o.res.Rows[0][0].(int64) != 200 {
		t.Fatalf("drained query returned wrong result: %v", o.res.Rows)
	}
	// The server must be gone now.
	if _, err := client.Dial(srv.Addr().String(), client.WithRetry(1, 0)); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// TestConnectionLimit verifies connections beyond MaxConns are refused
// with an error response instead of hanging.
func TestConnectionLimit(t *testing.T) {
	srv := startServer(t, Config{MaxConns: 2})
	a := dial(t, srv)
	b := dial(t, srv)
	if err := a.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := b.Ping(); err != nil {
		t.Fatal(err)
	}
	c, err := client.Dial(srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err == nil {
		t.Fatal("third connection should be refused at MaxConns=2")
	} else if !strings.Contains(err.Error(), "connection limit") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
	// Freeing a slot lets new connections in.
	a.Close()
	var ok bool
	for i := 0; i < 50; i++ { // the server unregisters the conn asynchronously
		d, err := client.Dial(srv.Addr().String())
		if err == nil && d.Ping() == nil {
			d.Close()
			ok = true
			break
		}
		if err == nil {
			d.Close()
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !ok {
		t.Fatal("slot was not freed after closing a connection")
	}
}

// TestQueryTimeout verifies a statement exceeding QueryTimeout gets an
// error response and the connection is closed, while other
// connections keep working.
func TestQueryTimeout(t *testing.T) {
	srv := startServer(t, Config{QueryTimeout: 30 * time.Millisecond})
	seed := dial(t, srv)
	var ins strings.Builder
	ins.WriteString("CREATE TABLE N (X INT);")
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&ins, "INSERT INTO N VALUES (%d);", i)
	}
	// Seeding must beat the query timeout too, so insert in chunks? No:
	// exec of the script is one statement stream — run it without the
	// slow path by keeping it simple and fast (400 single-row inserts).
	if _, err := seed.Exec(ins.String()); err != nil {
		t.Fatal(err)
	}

	slow := dial(t, srv)
	_, err := slow.Query("SELECT COUNT(*) FROM N a, N b, N c")
	if err == nil {
		t.Fatal("expected a query timeout")
	}
	if !strings.Contains(err.Error(), "query timeout") {
		t.Fatalf("unexpected error: %v", err)
	}
	// The timed-out connection is closed server-side.
	if err := slow.Ping(); err == nil {
		t.Fatal("connection should be dead after a query timeout")
	}
	// Other connections are unaffected.
	if err := seed.Ping(); err != nil {
		t.Fatal(err)
	}
	if stats, err := seed.Stats(); err != nil || stats["server_query_timeouts"] < 1 {
		t.Fatalf("server_query_timeouts not counted (stats=%v, err=%v)", stats, err)
	}
}

// TestInterleavedTransactions checks that a transaction opened on one
// connection cannot be committed, rolled back, or corrupted by
// another, and that dropping a connection mid-transaction rolls back
// and releases the writer lock.
func TestInterleavedTransactions(t *testing.T) {
	srv := startServer(t, Config{})
	a := dial(t, srv)
	b := dial(t, srv)

	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO Patients VALUES (10, 'Zed', 50, '00000')"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Exec("COMMIT"); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Fatalf("foreign COMMIT not rejected cleanly: %v", err)
	}
	if _, err := b.Exec("ROLLBACK"); err == nil || !strings.Contains(err.Error(), "no open transaction") {
		t.Fatalf("foreign ROLLBACK not rejected cleanly: %v", err)
	}
	if _, err := a.Exec("ROLLBACK"); err != nil {
		t.Fatal(err)
	}
	res, err := b.Query("SELECT Name FROM Patients WHERE PatientID = 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("rolled-back insert visible from another session")
	}

	// Drop a connection holding an open transaction; the server must
	// roll it back and release the writer lock for others.
	if _, err := a.Exec("BEGIN"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Exec("INSERT INTO Patients VALUES (11, 'Ghost', 1, '00000')"); err != nil {
		t.Fatal(err)
	}
	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := b.Exec("INSERT INTO Patients VALUES (12, 'Next', 2, '00000')"); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("writer lock not released after connection drop: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err = b.Query("SELECT Name FROM Patients WHERE PatientID = 11")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("dropped connection's transaction was not rolled back")
	}
}

// TestPreparedOverWire covers server-side prepared statements: param
// binding, audited runs, per-session attribution.
func TestPreparedOverWire(t *testing.T) {
	srv := startServer(t, Config{})
	a := dial(t, srv)
	b := dial(t, srv)
	if err := a.SetUser("alice"); err != nil {
		t.Fatal(err)
	}
	if err := b.SetUser("bob"); err != nil {
		t.Fatal(err)
	}

	sa, err := a.Prepare("SELECT Name, Age FROM Patients WHERE Name = ?")
	if err != nil {
		t.Fatal(err)
	}
	if sa.NumParams() != 1 {
		t.Fatalf("NumParams = %d, want 1", sa.NumParams())
	}
	sb, err := b.Prepare("SELECT Name FROM Patients WHERE Name = ? AND Age > ?")
	if err != nil {
		t.Fatal(err)
	}

	res, err := sa.Run("Alice")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].(string) != "Alice" || res.Rows[0][1].(int64) != 34 {
		t.Fatalf("prepared run returned %v", res.Rows)
	}
	if res.Audited["Audit_Alice"] == 0 {
		t.Fatalf("prepared run not audited: %v", res.Audited)
	}
	if _, err := sb.Run("Alice", 30); err != nil {
		t.Fatal(err)
	}
	if _, err := sb.Run("Alice"); err == nil {
		t.Fatal("wrong arity accepted")
	}

	res, err = a.Query("SELECT UserID FROM Log ORDER BY UserID")
	if err != nil {
		t.Fatal(err)
	}
	var users []string
	for _, r := range res.Rows {
		users = append(users, r[0].(string))
	}
	// Note a's own Log query also fires the trigger only if it touches
	// Patients — it does not, so exactly the two prepared runs logged.
	if len(users) != 2 || users[0] != "alice" || users[1] != "bob" {
		t.Fatalf("prepared attribution wrong: %v", users)
	}

	if err := sa.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := sa.Run("Alice"); err == nil {
		t.Fatal("closed statement still runs")
	}
}

// rawSet sends one line-JSON "set" on a fresh connection and returns
// the reply; the client package has no method for keys it must not set.
func rawSet(t *testing.T, srv *Server, key, val string) wire.Response {
	t.Helper()
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(10 * time.Second))
	line, _ := json.Marshal(wire.Request{Op: wire.OpSet, Key: key, Value: val})
	if _, err := nc.Write(append(line, '\n')); err != nil {
		t.Fatal(err)
	}
	reply, err := bufio.NewReader(nc).ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var resp wire.Response
	if err := json.Unmarshal(reply, &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestPerSessionSettings checks audit_all applies to one connection
// only, and that placement is no session setting at all.
func TestPerSessionSettings(t *testing.T) {
	srv := startServer(t, Config{})
	a := dial(t, srv)
	b := dial(t, srv)
	if err := a.SetAuditAll(true); err != nil {
		t.Fatal(err)
	}
	if resp := rawSet(t, srv, "placement", "leaf"); resp.OK || !strings.Contains(resp.Error, "fixed by the server") {
		t.Fatalf("set placement = leaf: %+v, want refused naming the server", resp)
	}
	// Bob's query touches Bob's row only; with audit-all off for b and
	// the trigger bound to Alice's record, nothing is audited.
	res, err := b.Query("SELECT Name FROM Patients WHERE Name = 'Bob'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Audited) != 0 {
		t.Fatalf("unexpected audit on b: %v", res.Audited)
	}
	// a has audit-all on: the same query is instrumented for
	// Audit_Alice but accesses no sensitive row — still no IDs, but a
	// query that does touch Alice reports them without any trigger
	// firing needed.
	res, err = a.Query("SELECT Name FROM Patients")
	if err != nil {
		t.Fatal(err)
	}
	if res.Audited["Audit_Alice"] == 0 {
		t.Fatalf("audit-all session did not record access: %v", res.Audited)
	}
}
