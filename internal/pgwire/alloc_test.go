package pgwire

import (
	"bytes"
	"context"
	"net"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/engine"
	"auditdb/internal/server"
	"auditdb/internal/value"
)

// TestExtendedTransportAllocBudget gates what the pg front door itself
// allocates for one warm Bind/Execute/Sync: everything the process
// allocates while a client with prebuilt request bytes and a fixed read
// buffer completes a round trip over loopback, less what the engine
// allocates running the same prepared statement in process (that budget
// has its own gate, TestWarmExecAllocBudget).
func TestExtendedTransportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	eng := engine.New()
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		t.Fatal(err)
	}
	srv := server.New(eng, server.Config{QueryTimeout: 30 * time.Second})
	if err := srv.AddListener("127.0.0.1:0", New(eng.Metrics())); err != nil {
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

	const sql = "SELECT Name, Age FROM Patients WHERE PatientID = "
	prep, err := eng.NewSession().Prepare(sql + "?")
	if err != nil {
		t.Fatal(err)
	}
	params := []value.Value{value.NewInt(2)}
	engineAllocs := testing.AllocsPerRun(200, func() {
		if res, err := prep.Run(params...); err != nil || len(res.Rows) != 1 {
			t.Fatalf("in-process run: %v, %v", res, err)
		}
	})

	nc, err := net.Dial("tcp", srv.ProtoAddr("pg").String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 64<<10)
	// roundTrip writes req and reads to the ReadyForQuery that ends the
	// reply, returning the reply.
	roundTrip := func(req []byte) []byte {
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		n := 0
		for n < 6 || buf[n-6] != msgReadyForQuery || !bytes.Equal(buf[n-5:n-1], []byte{0, 0, 0, 5}) {
			m, err := nc.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += m
		}
		return buf[:n]
	}
	startup := append(i32(8+len("user\x00gate\x00\x00")), i32(protoVersion3)...)
	roundTrip(append(startup, "user\x00gate\x00\x00"...))
	roundTrip(append(frontend(msgParse, cs("q"), cs(sql+"$1"), i16(1), i32(oidInt8)), frontend(msgSync)...))
	bes := bytes.Join([][]byte{
		frontend(msgBind, cs(""), cs("q"), i16(0), i16(1), textParam("2"), i16(0)),
		frontend(msgExecute, cs(""), i32(0)),
		frontend(msgSync),
	}, nil)
	if reply := roundTrip(bes); !bytes.Contains(reply, []byte("Bob")) || !bytes.Contains(reply, []byte("SELECT 1\x00")) {
		t.Fatalf("unexpected reply %q", reply)
	}

	total := testing.AllocsPerRun(200, func() { roundTrip(bes) })
	t.Logf("round trip %.1f allocs, engine %.1f, transport %.1f", total, engineAllocs, total-engineAllocs)
	if transport := total - engineAllocs; transport > 1 {
		t.Fatalf("pg transport allocates %.1f/op on a warm Bind/Execute/Sync (round trip %.1f, engine %.1f), want <= 1",
			transport, total, engineAllocs)
	}
}
