package main

import (
	"bufio"
	"encoding/json"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"auditdb/internal/client"
	"auditdb/internal/wire"
)

// TestTriageDaemon drives triage through the daemon: audited queries
// enqueue priority-ordered events, background workers chain signed
// verdicts, a SELECT over sys.verdicts reads them over the wire, the
// mixed stream verifies, and a client cannot take its own firings out of
// verification. A SIGTERM drain flushes the backlog before the final
// checkpoint; restart then proves the verdicts persist.
func TestTriageDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("daemon test builds the binary")
	}
	bin := buildDaemon(t)
	dataDir := filepath.Join(t.TempDir(), "data")
	args := []string{"-data-dir", dataDir, "-sync", "always", "-demo", "-grace", "10s",
		"-triage-workers", "2", "-triage-queue", "64"}

	cmd, addr := startDaemon(t, bin, args...)
	c, err := client.Dial(addr, client.WithRetry(10, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.SetUser("dr_mallory"); err != nil {
		t.Fatal(err)
	}
	const firings = 5
	for i := 0; i < firings; i++ {
		if _, err := c.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
			t.Fatalf("audited query %d: %v", i, err)
		}
	}

	// Wait for the workers to drain: each firing must end as a verdict.
	awaitVerdicts := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		var rows int
		for time.Now().Before(deadline) {
			r, err := c.Exec("SELECT * FROM sys.verdicts")
			if err != nil {
				t.Fatalf("sys.verdicts: %v", err)
			}
			rows = len(r.Rows)
			if rows == want {
				for _, row := range r.Rows {
					if row[2].(string) != "confirmed" {
						t.Fatalf("verdict outcome = %v, want confirmed", row[2])
					}
					if row[4].(string) != "dr_mallory" {
						t.Fatalf("verdict user = %v", row[4])
					}
				}
				return
			}
			time.Sleep(50 * time.Millisecond)
		}
		t.Fatalf("verdicts = %d, want %d", rows, want)
	}
	awaitVerdicts(firings)

	// The chain now interleaves audits and verdicts: both verify.
	v, err := c.VerifyAuditLog()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid || v.Records != 2*firings {
		t.Fatalf("verify = %+v, want valid with %d records", v, 2*firings)
	}

	// Triage is the server's (-triage-workers), not the client's: a
	// "set triage off" is refused, and the next firing is verified too.
	if resp := rawSet(t, addr, "triage", "off"); resp.OK || !strings.Contains(resp.Error, "-triage-workers") {
		t.Fatalf("set triage = off: %+v, want refused naming -triage-workers", resp)
	}
	if _, err := c.Query("SELECT * FROM Patients WHERE Name = 'Alice'"); err != nil {
		t.Fatal(err)
	}
	awaitVerdicts(firings + 1)
	c.Close()
	sigtermAndWait(t, cmd)

	// Restart: every firing's audit record and verdict survive.
	cmd, addr = startDaemon(t, bin, args...)
	defer func() { sigtermAndWait(t, cmd) }()
	c, err = client.Dial(addr, client.WithRetry(10, 50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v, err = c.VerifyAuditLog()
	if err != nil {
		t.Fatal(err)
	}
	if !v.Valid || v.Records != 2*(firings+1) {
		t.Fatalf("post-restart verify = %+v, want valid with %d records", v, 2*(firings+1))
	}
}

// rawSet sends one line-JSON "set" on a fresh connection and returns
// the reply; the client package has no method for keys it must not set.
func rawSet(t *testing.T, addr, key, val string) wire.Response {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
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
