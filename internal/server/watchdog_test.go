package server

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"auditdb/internal/client"
	"auditdb/internal/engine"
)

// seedN creates table N with n rows; a three-way cross join over it is
// the suite's slow statement.
func seedN(t *testing.T, srv *Server, n int) {
	t.Helper()
	var ins strings.Builder
	ins.WriteString("CREATE TABLE N (X INT);")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&ins, "INSERT INTO N VALUES (%d);", i)
	}
	if _, err := srv.Engine().NewSession().ExecScript(ins.String()); err != nil {
		t.Fatal(err)
	}
}

// TestTimeoutInsideTransaction pins what the watchdog owes a connection
// whose statement outruns the limit while it holds the writer lock: the
// client reads exactly one timeout reply and then EOF; Shutdown is not
// held up by the statement still running; and the transaction is rolled
// back — the writer lock released — only once the statement has ended,
// never underneath it.
func TestTimeoutInsideTransaction(t *testing.T) {
	srv := startServer(t, Config{QueryTimeout: 40 * time.Millisecond})
	seedN(t, srv, 200)

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	r := bufio.NewReader(nc)
	for _, req := range []string{
		`{"op":"exec","sql":"BEGIN"}`,
		`{"op":"exec","sql":"INSERT INTO Patients VALUES (77, 'Doomed', 1, '00000')"}`,
	} {
		fmt.Fprintln(nc, req)
		if line, err := r.ReadString('\n'); err != nil || !strings.Contains(line, `"ok":true`) {
			t.Fatalf("%s -> %q, %v", req, line, err)
		}
	}
	start := time.Now()
	fmt.Fprintln(nc, `{"op":"query","sql":"SELECT COUNT(*) FROM N a, N b, N c"}`)
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	rest, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading to EOF: %v", err)
	}
	replied := time.Since(start)
	if n := strings.Count(string(rest), "\n"); n != 1 || !strings.Contains(string(rest), "query timeout") {
		t.Fatalf("want exactly one timeout reply before EOF, got %q", rest)
	}

	// The statement is still running. A writer on another session must
	// stay blocked behind the open transaction until it ends...
	unblocked := make(chan time.Time, 1)
	go func() {
		_, err := srv.Engine().NewSession().Exec("INSERT INTO Patients VALUES (78, 'Next', 2, '00000')")
		if err != nil {
			t.Error(err)
		}
		unblocked <- time.Now()
	}()
	// ...while Shutdown, which waits for every served connection, does
	// not wait for this one: the watchdog gave its slot back.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown waited for the runaway statement: %v", err)
	}
	drained := time.Now()
	select {
	case at := <-unblocked:
		// The cross join runs for hundreds of milliseconds at least.
		t.Fatalf("writer lock released %v after the statement began (timeout reply at %v): the rollback did not wait for the statement",
			at.Sub(start), replied)
	case <-time.After(60 * time.Millisecond):
	}
	select {
	case <-unblocked:
	case <-time.After(60 * time.Second):
		t.Fatal("writer lock never released after the timed-out statement ended")
	}
	t.Logf("timeout reply after %v, drained after %v, lock released after %v",
		replied, drained.Sub(start), time.Since(start))

	res, err := srv.Engine().NewSession().Query("SELECT PatientID FROM Patients WHERE PatientID = 77 OR PatientID = 78")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Int() != 78 {
		t.Fatalf("timed-out transaction not rolled back: %v", res.Rows)
	}
	if got := srv.Stats()["server_query_timeouts"]; got != 1 {
		t.Fatalf("server_query_timeouts = %d, want 1", got)
	}
}

// TestNoSpuriousTimeouts runs many statements far shorter than the
// limit back to back on several connections. The watchdog's timer is
// never reset per statement, so most firings find a later statement
// than the one that was running when the timer was set; none of them
// may be taken for an expired one.
func TestNoSpuriousTimeouts(t *testing.T) {
	srv := startServer(t, Config{QueryTimeout: 50 * time.Millisecond})
	const conns, perConn = 8, 2000
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := client.Dial(srv.Addr().String())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := 0; j < perConn; j++ {
				if _, err := c.Query("SELECT Name FROM Patients WHERE PatientID = 2"); err != nil {
					errs <- fmt.Errorf("statement %d: %w", j, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	stats := srv.Stats()
	if stats["server_query_timeouts"] != 0 {
		t.Fatalf("server_query_timeouts = %d, want 0", stats["server_query_timeouts"])
	}
	if got := stats["query_seconds_json_count"]; got != conns*perConn {
		t.Fatalf("query_seconds_json_count = %d, want %d", got, conns*perConn)
	}
}

// napProtocol is a one-statement protocol for racing a statement's end
// against its deadline: the request is one byte, the statement sleeps
// for nap, and the reply is "done\n" from Serve or "late\n" from Expire.
type napProtocol struct{ nap time.Duration }

func (napProtocol) Name() string { return "nap" }

func (napProtocol) Refuse(nc net.Conn, msg string) { nc.Close() }

func (napProtocol) Expire(nc net.Conn, limit time.Duration) { nc.Write([]byte("late\n")) }

func (p napProtocol) Serve(c *Conn) {
	var req [1]byte
	if _, err := io.ReadFull(c.NetConn(), req[:]); err != nil {
		return
	}
	if c.Guard(time.Now(), func() { time.Sleep(p.nap) }) {
		c.Write([]byte("done\n"))
	}
}

// TestDeadlineRaceHasOneWinner ends statements as close to their
// deadline as a sleep can and checks the state word's promise: every
// connection reads exactly one reply — the statement's or the
// watchdog's, never both, never neither — and the timeout counter
// counts exactly the watchdog's.
func TestDeadlineRaceHasOneWinner(t *testing.T) {
	const limit = 2 * time.Millisecond
	srv := New(engine.New(), Config{QueryTimeout: limit})
	if err := srv.AddListener("127.0.0.1:0", napProtocol{nap: limit - 100*time.Microsecond}); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	}()

	outcomes := map[string]int{}
	for i := 0; i < 500; i++ {
		nc, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		nc.Write([]byte{'x'})
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		all, err := io.ReadAll(nc)
		nc.Close()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if got := string(all); got != "done\n" && got != "late\n" {
			t.Fatalf("iteration %d: connection read %q, want exactly one reply", i, got)
		}
		outcomes[string(all)]++
	}
	t.Logf("outcomes: %v", outcomes)
	if got := srv.Stats()["server_query_timeouts"]; got != int64(outcomes["late\n"]) {
		t.Fatalf("server_query_timeouts = %d, but %d connections read the timeout reply", got, outcomes["late\n"])
	}
}
