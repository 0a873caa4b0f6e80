package pgwire

import (
	"bytes"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"auditdb"
	"auditdb/internal/engine"
	"auditdb/internal/server"
	"auditdb/internal/value"
)

// recConn is a recorded connection: reads replay a byte script, writes
// are discarded, deadlines are ignored.
type recConn struct{ in *bytes.Reader }

func (c recConn) Read(p []byte) (int, error)       { return c.in.Read(p) }
func (c recConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c recConn) Close() error                     { return nil }
func (c recConn) LocalAddr() net.Addr              { return &net.TCPAddr{} }
func (c recConn) RemoteAddr() net.Addr             { return &net.TCPAddr{} }
func (c recConn) SetDeadline(time.Time) error      { return nil }
func (c recConn) SetReadDeadline(time.Time) error  { return nil }
func (c recConn) SetWriteDeadline(time.Time) error { return nil }

// kept is a deep copy of everything a connection retains from the
// messages it has handled: statement names, SQL and parameter types,
// portal parameters.
type kept struct {
	stmts   map[*pgStmt]pgStmt
	portals map[*pgPortal][]value.Value
}

func keep(pc *pgConn) kept {
	k := kept{map[*pgStmt]pgStmt{}, map[*pgPortal][]value.Value{}}
	for key, st := range pc.stmts {
		if key != st.name {
			panic("statement registered under a name that is not its own")
		}
		k.stmts[st] = pgStmt{
			name: strings.Clone(st.name), sql: strings.Clone(st.sql),
			paramOIDs: append([]uint32(nil), st.paramOIDs...),
		}
	}
	for _, pt := range pc.portals {
		params := make([]value.Value, len(pt.params))
		for i, v := range pt.params {
			v.S = strings.Clone(v.S)
			params[i] = v
		}
		k.portals[pt] = params
	}
	return k
}

// unchanged reports the first retained datum that differs from its copy.
func (k kept) unchanged(pc *pgConn) string {
	for _, st := range pc.stmts {
		was, ok := k.stmts[st]
		if !ok {
			continue
		}
		if st.name != was.name || st.sql != was.sql || !equalOIDs(st.paramOIDs, was.paramOIDs) {
			return "statement " + was.name
		}
	}
	for name, pt := range pc.portals {
		was, ok := k.portals[pt]
		if !ok {
			continue
		}
		if len(pt.params) != len(was) {
			return "portal " + name
		}
		for i := range was {
			if pt.params[i] != was[i] {
				return "portal " + name
			}
		}
	}
	return ""
}

func equalOIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// aliasCheck serves a connection as Protocol.Serve does, but between
// reading a message and handling it verifies that the read — which
// overwrites the connection's one message buffer — changed nothing the
// connection had retained from earlier messages.
type aliasCheck struct {
	*Protocol
	t *testing.T
}

func (p *aliasCheck) Serve(c *server.Conn) {
	pc := newConn(p.Protocol, c)
	if !pc.handshake() {
		return
	}
	before := keep(pc)
	for !c.Closing() {
		typ, payload, err := pc.readMessage()
		if err != nil {
			return
		}
		if what := before.unchanged(pc); what != "" {
			p.t.Fatalf("reading a %q message changed retained %s", typ, what)
		}
		if !pc.handle(typ, payload) {
			return
		}
		before = keep(pc)
	}
}

func frontend(typ byte, body ...[]byte) []byte {
	b := bytes.Join(body, nil)
	out := append([]byte{typ}, 0, 0, 0, 0)
	binary.BigEndian.PutUint32(out[1:], uint32(len(b)+4))
	return append(out, b...)
}

func cs(s string) []byte { return append([]byte(s), 0) }

func i16(v int) []byte { return binary.BigEndian.AppendUint16(nil, uint16(v)) }

func i32(v int) []byte { return binary.BigEndian.AppendUint32(nil, uint32(v)) }

func textParam(s string) []byte { return append(i32(len(s)), s...) }

// FuzzPgwireMessage feeds arbitrary bytes, as the message stream of an
// established connection, through readMessage and every handler over a
// recorded connection. Nothing may panic, and nothing a handler kept —
// a name, a statement's SQL, a bound parameter — may change when the
// next message lands in the reused read buffer.
func FuzzPgwireMessage(f *testing.F) {
	eng := engine.New()
	if _, err := eng.ExecScript(auditdb.HealthcareDemo); err != nil {
		f.Fatal(err)
	}
	srv := server.New(eng, server.Config{})
	check := &aliasCheck{Protocol: New(eng.Metrics())}
	if err := srv.AddListener("", check); err != nil {
		f.Fatal(err)
	}
	startup := append(i32(8+len("user\x00fuzz\x00\x00")), i32(protoVersion3)...)
	startup = append(startup, "user\x00fuzz\x00\x00"...)

	sync := frontend(msgSync)
	f.Add(bytes.Join([][]byte{
		frontend(msgParse, cs("byname"), cs("SELECT Name, Age FROM Patients WHERE Name = $1 AND Age > $2"), i16(2), i32(oidText), i32(oidInt8)),
		frontend(msgDescribe, []byte{'S'}, cs("byname")),
		frontend(msgBind, cs("p1"), cs("byname"), i16(0), i16(2), textParam("Alice"), textParam("30"), i16(0)),
		frontend(msgDescribe, []byte{'P'}, cs("p1")),
		frontend(msgExecute, cs("p1"), i32(0)),
		sync,
		frontend(msgBind, cs(""), cs("byname"), i16(1), i16(0), i16(2), textParam("Bob"), i32(-1), i16(1), i16(0)),
		frontend(msgExecute, cs(""), i32(1)),
		frontend(msgExecute, cs(""), i32(1)),
		frontend(msgClose, []byte{'P'}, cs("")),
		frontend(msgClose, []byte{'S'}, cs("byname")),
		sync,
	}, nil))
	f.Add(bytes.Join([][]byte{
		frontend(msgQuery, cs("BEGIN; INSERT INTO Patients VALUES (90, 'Fuzz', 9, '00000'); SELECT * FROM Patients; ROLLBACK")),
		frontend(msgQuery, cs("SET workers = 2")),
		frontend(msgQuery, cs("SHOW workers;")),
		frontend(msgQuery, cs("")),
		frontend(msgParse, cs(""), cs("SHOW placement"), i16(0)),
		frontend(msgBind, cs(""), cs(""), i16(0), i16(0), i16(0)),
		frontend(msgExecute, cs(""), i32(0)),
		frontend(msgFlush),
		sync,
		frontend(msgTerminate),
	}, nil))
	f.Add(bytes.Join([][]byte{
		frontend(msgParse, cs("a"), cs("SELECT Name FROM Patients WHERE PatientID = $1"), i16(0)),
		frontend(msgBind, cs("a"), cs("a"), i16(1), i16(1), i16(1), textParam("2"), i16(0)), // binary: refused
		frontend(msgBind, cs("a"), cs("nope"), i16(0), i16(0), i16(0)),
		frontend(msgBind, cs("a"), cs("a"), i16(0xFFFF)),
		frontend(msgExecute, cs("missing"), i32(0)),
		sync,
		frontend('?', []byte("unknown")),
		{msgQuery, 0, 0, 0, 3}, // length below the minimum
	}, nil))

	f.Fuzz(func(t *testing.T, stream []byte) {
		check.t = t
		in := append(append([]byte(nil), startup...), stream...)
		if err := srv.ServeConn("pg", recConn{bytes.NewReader(in)}); err != nil {
			t.Fatal(err)
		}
	})
}
