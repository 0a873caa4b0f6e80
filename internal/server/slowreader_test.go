package server_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/engine"
	"auditdb/internal/pgwire"
	"auditdb/internal/pgwire/pgtest"
	"auditdb/internal/server"
)

// TestPGClientThatStopsReading is the regression test for pgwire's
// socket writes having had no deadline: a client opens a transaction,
// then keeps sending a 110-row query and never reads a reply. Once the
// socket buffers are full the server's write blocks; it must give up
// after the transport's write deadline and close the connection — slot
// freed, transaction rolled back, writer lock released — instead of
// pinning all three for as long as the client cares to stay connected.
func TestPGClientThatStopsReading(t *testing.T) {
	eng := engine.New()
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	var ddl strings.Builder
	ddl.WriteString("CREATE TABLE Wide (ID INT, Pad VARCHAR(600));")
	for i := 0; i < 110; i++ {
		fmt.Fprintf(&ddl, "INSERT INTO Wide VALUES (%d, '%s');", i, strings.Repeat("p", 500))
	}
	if _, err := eng.ExecScript(ddl.String()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{})
	srv.SetReplyWriteTimeout(300 * time.Millisecond)
	if err := srv.AddListener("127.0.0.1:0", pgwire.New(eng.Metrics())); err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	c, _, err := pgtest.Dial(srv.ProtoAddr("pg").String(), "hoarder")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, sql := range []string{"BEGIN", "INSERT INTO Patients VALUES (55, 'Held', 1, '00000')"} {
		if err := c.Query(sql); err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.ReadUntilReady(); err != nil {
			t.Fatal(err)
		}
	}
	// ~56 KiB per reply; a few hundred of them overflow any loopback
	// socket buffering. The requests themselves are tiny and all fit.
	c.SetDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < 2000; i++ {
		if err := c.Query("SELECT ID, Pad FROM Wide"); err != nil {
			break // the server already hung up
		}
	}

	deadline := time.Now().Add(15 * time.Second)
	for srv.Stats()["conns_active_pg"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("connection of a client that stopped reading is still being served")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Its transaction is gone and the writer lock with it.
	done := make(chan error, 1)
	go func() {
		_, err := eng.NewSession().Exec("INSERT INTO Patients VALUES (56, 'Free', 2, '00000')")
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("writer lock still held by the dropped connection's transaction")
	}
	res, err := eng.NewSession().Query("SELECT PatientID FROM Patients WHERE PatientID = 55")
	if err != nil || len(res.Rows) != 0 {
		t.Fatalf("dropped connection's transaction not rolled back: %v, %v", res, err)
	}
}
