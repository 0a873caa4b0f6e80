package pgwire_test

import (
	"bufio"
	"encoding/json"
	"net"
	"testing"
	"time"

	"auditdb/internal/pgwire/pgtest"
	"auditdb/internal/server"
	"auditdb/internal/wire"
)

// TestSessionSettingsBothProtocols: the session settings are declared
// once in the engine, so pgwire SET and line-JSON "set" accept and
// reject exactly the same spellings, SHOW reports what was set, and
// RESET restores each setting's declared default. Unknown names stay
// protocol-specific: pgwire absorbs them (driver boilerplate),
// line-JSON rejects them.
func TestSessionSettingsBothProtocols(t *testing.T) {
	srv, addr := startPG(t, server.Config{})
	pc := dialPG(t, addr, "ops")

	nc, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	nc.SetDeadline(time.Now().Add(30 * time.Second))
	jr := bufio.NewReader(nc)
	jsonSet := func(key, val string) wire.Response {
		t.Helper()
		line, _ := json.Marshal(wire.Request{Op: wire.OpSet, Key: key, Value: val})
		if _, err := nc.Write(append(line, '\n')); err != nil {
			t.Fatal(err)
		}
		reply, err := jr.ReadBytes('\n')
		if err != nil {
			t.Fatal(err)
		}
		var resp wire.Response
		if err := json.Unmarshal(reply, &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	show := func(name string) string {
		t.Helper()
		msgs, _ := query(t, pc, "SHOW "+name)
		rows := byType(msgs, 'D')
		if len(rows) != 1 {
			t.Fatalf("SHOW %s: %v", name, msgs)
		}
		row, err := pgtest.DataRow(rows[0].Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(row[0])
	}

	for _, tc := range []struct {
		name, val string
		show      string // "" = rejected
	}{
		{"workers", "3", "3"},
		{"workers", "0", "0"},
		{"workers", "-1", ""},
		{"workers", "many", ""},
		{"audit_all", "on", "on"},
		{"audit_all", "0", "off"},
		{"audit_all", "TRUE", "on"},
		{"audit_all", "maybe", ""},
		{"placement", "LEAF", "leaf"},
		{"placement", "highest", "highest"},
		{"placement", "root", ""},
		{"trace", "1", "on"},
		{"trace", "Off", "off"},
		{"triage", "false", "off"},
		{"triage", "ON", "on"},
		{"skipping", "0", "off"},
		{"skipping", "yes", ""},
	} {
		msgs, _ := query(t, pc, "SET "+tc.name+" = '"+tc.val+"'")
		if tc.show == "" {
			if got := sqlstate(t, msgs); got != "22023" {
				t.Errorf("pgwire SET %s = %q: sqlstate %q, want 22023", tc.name, tc.val, got)
			}
		} else {
			if got := tags(t, msgs); len(got) != 1 || got[0] != "SET" {
				t.Errorf("pgwire SET %s = %q: %v", tc.name, tc.val, msgs)
			}
			if got := show(tc.name); got != tc.show {
				t.Errorf("SHOW %s after SET %q = %q, want %q", tc.name, tc.val, got, tc.show)
			}
		}
		if resp := jsonSet(tc.name, tc.val); resp.OK != (tc.show != "") {
			t.Errorf("line-JSON set %s = %q: ok=%v error=%q, want ok=%v",
				tc.name, tc.val, resp.OK, resp.Error, tc.show != "")
		}
	}

	// RESET restores the declared default whatever was set before.
	for _, tc := range []struct{ name, set, reset string }{
		{"workers", "4", "0"},
		{"audit_all", "on", "off"},
		{"placement", "leaf", "hcn"},
		{"trace", "on", "off"},
		{"triage", "off", "on"},
		{"skipping", "off", "on"},
	} {
		query(t, pc, "SET "+tc.name+" = "+tc.set)
		if got := show(tc.name); got != tc.set {
			t.Fatalf("SHOW %s after SET %s = %q", tc.name, tc.set, got)
		}
		msgs, _ := query(t, pc, "RESET "+tc.name)
		if got := tags(t, msgs); len(got) != 1 || got[0] != "RESET" {
			t.Fatalf("RESET %s: %v", tc.name, msgs)
		}
		if got := show(tc.name); got != tc.reset {
			t.Errorf("SHOW %s after RESET = %q, want %q", tc.name, got, tc.reset)
		}
	}

	msgs, _ := query(t, pc, "SET application_name = 'psql'")
	if got := tags(t, msgs); len(got) != 1 || got[0] != "SET" {
		t.Errorf("pgwire must absorb unknown SET names: %v", msgs)
	}
	if resp := jsonSet("application_name", "psql"); resp.OK {
		t.Error("line-JSON must reject unknown setting names")
	}
	if resp := jsonSet(wire.KeyUser, "nurse_nancy"); !resp.OK {
		t.Errorf("line-JSON set user: %q", resp.Error)
	}
}
