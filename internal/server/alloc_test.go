package server

import (
	"bytes"
	"net"
	"testing"
	"time"
)

// TestQueryTransportAllocBudget gates what the line-JSON front door
// itself allocates for one warm "query": everything the process
// allocates while a client with a prebuilt request line and a fixed
// read buffer completes a round trip over loopback, less what the
// engine allocates running the same statement in process (that budget
// has its own gate, TestWarmExecAllocBudget). What is left is the one
// copy of the SQL text the engine is handed.
func TestQueryTransportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	srv := startServer(t, Config{QueryTimeout: 30 * time.Second})
	const sql = "SELECT Name, Age FROM Patients WHERE PatientID = 2"
	sess := srv.Engine().NewSession()
	engineAllocs := testing.AllocsPerRun(200, func() {
		if res, err := sess.Query(sql); err != nil || len(res.Rows) != 1 {
			t.Fatalf("in-process query: %v, %v", res, err)
		}
	})

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	req := []byte(`{"op":"query","sql":"` + sql + `"}` + "\n")
	buf := make([]byte, 64<<10)
	roundTrip := func() []byte {
		if _, err := nc.Write(req); err != nil {
			t.Fatal(err)
		}
		n := 0
		for n == 0 || buf[n-1] != '\n' {
			m, err := nc.Read(buf[n:])
			if err != nil {
				t.Fatal(err)
			}
			n += m
		}
		return buf[:n]
	}
	if reply := roundTrip(); !bytes.HasPrefix(reply, []byte(`{"ok":true,"columns":["Name","Age"],"rows":[["Bob",`)) {
		t.Fatalf("unexpected reply %q", reply)
	}

	total := testing.AllocsPerRun(200, func() { roundTrip() })
	t.Logf("round trip %.1f allocs, engine %.1f, transport %.1f", total, engineAllocs, total-engineAllocs)
	if transport := total - engineAllocs; transport > 2 {
		t.Fatalf("line-JSON transport allocates %.1f/op on a warm query (round trip %.1f, engine %.1f), want <= 2",
			transport, total, engineAllocs)
	}
}
