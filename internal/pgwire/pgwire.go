// Package pgwire implements the PostgreSQL v3 wire protocol as a
// front door to the audit engine. It is dependency-free — the protocol
// is small enough to speak directly — and plugs into the server
// transport as one Protocol among others: the transport owns accept
// loops, connection limits, timeouts and drain; this package owns only
// the bytes. psql, libpq, pgx and JDBC can connect, run DDL/DML and
// audited SELECTs, and observe SELECT triggers firing, with results
// identical to the line-JSON protocol because both drive the same
// engine.Session.
//
// Deviations from PostgreSQL, by design of the underlying engine:
//
//   - No TLS and no authentication: SSLRequest and GSSENCRequest are
//     answered 'N'; the startup "user" parameter is trusted, exactly
//     as the line-JSON "set user" op is (DESIGN §1: the threat model
//     audits honest-but-curious readers, it does not authenticate).
//   - Text format only. Binary parameter or result formats are
//     refused with SQLSTATE 0A000.
//   - No CancelRequest support; a CancelRequest connection is closed.
//   - Multi-statement simple queries are not wrapped in an implicit
//     transaction; each statement autocommits unless BEGIN is open.
//   - A failed transaction is not sticky: the engine keeps executing
//     statements after an error inside BEGIN…COMMIT, so ReadyForQuery
//     reports 'E' only until the next statement succeeds.
package pgwire

import (
	"bufio"
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"auditdb/internal/engine"
	"auditdb/internal/obs"
	"auditdb/internal/server"
	"auditdb/internal/value"
)

// Protocol implements server.Protocol for the PostgreSQL wire format.
// One Protocol value serves every pg connection of a transport.
type Protocol struct {
	// messages counts frontend messages by type byte; startups counts
	// startup packets, which have none. The pgwire_messages{type}
	// family's counters are resolved here once, so counting a message
	// is one atomic add with no lock or map shared between connections.
	messages [256]*obs.Counter
	startups *obs.Counter
	errors   *obs.Counter
	nextPID  atomic.Int32
}

// New creates the pg front door, registering its metrics: a per-type
// frontend message counter and an ErrorResponse counter.
func New(reg *obs.Registry) *Protocol {
	byType := reg.NewCounterVec("auditdb_pgwire_messages_total", "pgwire_messages",
		"Frontend messages handled by the PostgreSQL front door.", "type")
	p := &Protocol{
		startups: byType.With("startup"),
		errors: reg.NewCounter("auditdb_pgwire_errors_total", "pgwire_errors",
			"ErrorResponses sent by the PostgreSQL front door."),
	}
	for typ := range p.messages {
		p.messages[typ] = byType.With(msgName(byte(typ)))
	}
	return p
}

// Name identifies the protocol in logs and metrics.
func (p *Protocol) Name() string { return "pg" }

// Refuse reports a connection-limit refusal in PostgreSQL terms: the
// client speaks first, so the SSL/GSS negotiation is swallowed before
// the FATAL lands where libpq will read it.
func (p *Protocol) Refuse(nc net.Conn, msg string) {
	defer nc.Close()
	// Refused connections run outside MaxConns accounting, so a silent
	// client must not pin this goroutine: bound the whole exchange.
	nc.SetDeadline(time.Now().Add(5 * time.Second))
	r := bufio.NewReaderSize(nc, 512)
	for try := 0; try < maxStartupTrys; try++ {
		code, _, err := readStartup(r)
		if err != nil {
			return
		}
		if code == sslRequest || code == gssEncRequest {
			if _, err := nc.Write([]byte{'N'}); err != nil {
				return
			}
			continue
		}
		break
	}
	var w writer
	w.fatalResponse(stateTooManyConnections, msg)
	nc.Write(w.out)
}

// Expire answers a statement that outran the query timeout. The
// statement is still running, so the session's transaction state is
// unknowable and ReadyForQuery reports 'E'; completions buffered for
// the same batch but not yet flushed are not sent — the client reads
// the ErrorResponse in their place, as the protocol allows.
func (p *Protocol) Expire(nc net.Conn, limit time.Duration) {
	var w writer
	w.errorResponse(stateQueryCanceled,
		fmt.Sprintf("canceling statement due to statement timeout (%s)", limit))
	p.errors.Inc()
	w.readyForQuery('E')
	nc.Write(w.out)
}

// Serve speaks the protocol on one accepted connection.
func (p *Protocol) Serve(c *server.Conn) {
	pc := newConn(p, c)
	if !pc.handshake() {
		return
	}
	for pc.step() {
	}
}

func newConn(p *Protocol, c *server.Conn) *pgConn {
	return &pgConn{
		p:       p,
		tc:      c,
		r:       bufio.NewReaderSize(c.NetConn(), 32<<10),
		sess:    c.Session(),
		stmts:   map[string]*pgStmt{},
		portals: map[string]*pgPortal{},
	}
}

// pgConn is the per-connection protocol state machine.
type pgConn struct {
	p    *Protocol
	tc   *server.Conn
	r    *bufio.Reader
	sess *engine.Session

	// in is the reusable frontend-message buffer (see readMessage).
	in []byte
	// buf accumulates backend messages; they reach the socket at
	// Sync, Flush, after each simple query, and on fatal errors.
	buf writer

	stmts   map[string]*pgStmt
	portals map[string]*pgPortal
	// idle holds destroyed portals for the next Bind to reuse, their
	// parameter slices with them; pgVals is Bind's $n-order scratch.
	idle   []*pgPortal
	pgVals []value.Value

	// skipping discards messages until Sync after an error in an
	// extended-protocol batch, per the protocol's error recovery rule.
	skipping bool
	// hadErr tracks an error inside an open transaction for the
	// ReadyForQuery status byte ('E'); cleared when a statement
	// succeeds (failed transactions are not sticky here, see the
	// package comment).
	hadErr bool
}

// step reads and handles one frontend message; false means the
// connection is finished.
func (pc *pgConn) step() bool {
	if pc.tc.Closing() {
		pc.flushOut()
		return false
	}
	pc.tc.ArmIdleDeadline()
	typ, payload, err := pc.readMessage()
	if err != nil {
		return false
	}
	return pc.handle(typ, payload)
}

// handle dispatches one frontend message; false means the connection is
// finished.
func (pc *pgConn) handle(typ byte, payload []byte) bool {
	pc.p.messages[typ].Inc()
	if pc.skipping && typ != msgSync && typ != msgTerminate {
		return true
	}
	switch typ {
	case msgQuery:
		return pc.simpleQuery(payload)
	case msgParse:
		pc.handleParse(payload)
	case msgBind:
		pc.handleBind(payload)
	case msgDescribe:
		pc.handleDescribe(payload)
	case msgExecute:
		return pc.handleExecute(payload)
	case msgClose:
		pc.handleClose(payload)
	case msgSync:
		return pc.handleSync()
	case msgFlush:
		return pc.flushOut()
	case msgTerminate:
		return false
	default:
		pc.extErr(stateProtocolViolation,
			fmt.Sprintf("unsupported frontend message %q", typ))
	}
	return true
}

// handshake performs the startup exchange; false means the connection
// must be dropped.
func (pc *pgConn) handshake() bool {
	var params map[string]string
	for try := 0; ; try++ {
		if try >= maxStartupTrys {
			return false
		}
		pc.tc.ArmIdleDeadline()
		code, payload, err := readStartup(pc.r)
		if err != nil {
			return false
		}
		if code == sslRequest || code == gssEncRequest {
			// TLS/GSS are not offered; 'N' tells the client to carry
			// on in the clear.
			if pc.tc.Write([]byte{'N'}) != nil {
				return false
			}
			continue
		}
		if code == cancelRequest {
			// Out-of-band cancellation is unsupported; the protocol
			// says to just close the cancel connection.
			return false
		}
		if code != protoVersion3 {
			pc.buf.fatalResponse(stateProtocolViolation,
				fmt.Sprintf("unsupported frontend protocol %d.%d: server supports 3.0",
					code>>16, code&0xffff))
			pc.flushOut()
			return false
		}
		params = startupParams(payload)
		break
	}
	pc.p.startups.Inc()
	if user := params["user"]; user != "" {
		// The startup user becomes the session's audit identity:
		// userid() in trigger actions, the User column in the log.
		pc.sess.SetUser(user)
	}
	pid := pc.p.nextPID.Add(1)

	pc.buf.authenticationOK()
	pc.buf.parameterStatus("server_version", serverVersion)
	pc.buf.parameterStatus("server_encoding", "UTF8")
	pc.buf.parameterStatus("client_encoding", "UTF8")
	pc.buf.parameterStatus("DateStyle", "ISO, MDY")
	pc.buf.parameterStatus("integer_datetimes", "on")
	pc.buf.parameterStatus("standard_conforming_strings", "on")
	pc.buf.parameterStatus("TimeZone", "UTC")
	pc.buf.parameterStatus("is_superuser", "off")
	pc.buf.parameterStatus("session_authorization", pc.sess.User())
	pc.buf.backendKeyData(pid, 0) // secret 0: cancel keys are not honored
	pc.buf.readyForQuery(pc.statusByte())
	return pc.flushOut()
}

// startupParams decodes the key/value pairs of a v3 startup packet.
func startupParams(payload []byte) map[string]string {
	params := map[string]string{}
	pr := payloadReader{b: payload}
	for {
		k := pr.cstr()
		if pr.err != nil || len(k) == 0 {
			return params
		}
		params[string(k)] = string(pr.cstr())
	}
}

// statusByte is the ReadyForQuery transaction indicator: 'I' idle,
// 'T' in a transaction, 'E' in a transaction whose last statement
// failed. Must not be called while a statement is still running.
func (pc *pgConn) statusByte() byte {
	if !pc.sess.InTxn() {
		return 'I'
	}
	if pc.hadErr {
		return 'E'
	}
	return 'T'
}

// flushOut writes everything buffered to the socket, under the
// transport's write deadline; false on a write error (the connection is
// finished).
func (pc *pgConn) flushOut() bool {
	if len(pc.buf.out) == 0 {
		return true
	}
	err := pc.tc.Write(pc.buf.out)
	pc.buf.out = server.Recycle(pc.buf.out)
	return err == nil
}

// extErr reports an extended-protocol error and enters error recovery
// (messages are discarded until the next Sync).
func (pc *pgConn) extErr(code, msg string) {
	pc.buf.errorResponse(code, msg)
	pc.p.errors.Inc()
	pc.skipping = true
	pc.hadErr = true
}

// msgName labels frontend message types for the per-type counter.
func msgName(typ byte) string {
	switch typ {
	case msgQuery:
		return "query"
	case msgParse:
		return "parse"
	case msgBind:
		return "bind"
	case msgDescribe:
		return "describe"
	case msgExecute:
		return "execute"
	case msgClose:
		return "close"
	case msgSync:
		return "sync"
	case msgFlush:
		return "flush"
	case msgTerminate:
		return "terminate"
	default:
		return "other"
	}
}
