package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// TestOversizedRequestLine sends 17 MiB with no newline from a
// connection that never identified itself. The server must stop
// buffering at MaxRequestLen, say why, and hang up — not grow until the
// peer relents.
func TestOversizedRequestLine(t *testing.T) {
	srv := startServer(t, Config{})
	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	go func() {
		// The server hangs up part-way; the write error is expected.
		nc.Write(bytes.Repeat([]byte("x"), 17<<20))
	}()
	nc.SetReadDeadline(time.Now().Add(20 * time.Second))
	r := bufio.NewReader(nc)
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatalf("no reply to an oversized line: %v (read %q)", err, line)
	}
	if !strings.Contains(line, `"ok":false`) || !strings.Contains(line, "exceeds 16777216 bytes") {
		t.Fatalf("reply = %q", line)
	}
	if rest, err := io.ReadAll(r); len(rest) != 0 {
		t.Fatalf("connection stayed open after the refusal: %q, %v", rest, err)
	}

	// A long line under the limit is served — across the reader's 64 KiB
	// buffer — and the connection lives on.
	c := dial(t, srv)
	sql := "SELECT Name FROM Patients WHERE PatientID = 2 OR Name = '" + strings.Repeat("y", 1<<20) + "'"
	res, err := c.Query(sql)
	if err != nil || len(res.Rows) != 1 {
		t.Fatalf("1 MiB request: %v, %v", res, err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
}
