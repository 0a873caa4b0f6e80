package server

import (
	"log/slog"
	"math"
	"net"
	"sync/atomic"
	"time"

	"auditdb/internal/engine"
)

// Protocol is one pluggable wire-format front end served by the
// transport. The transport owns everything protocol-independent —
// accept loops, connection limits, per-connection engine sessions,
// idle and query timeouts, graceful drain — while a Protocol owns only
// the bytes on the wire: it reads requests in its own framing, drives
// the shared session through engine.Session, and writes responses in
// its own encoding. The line-JSON protocol and the PostgreSQL wire
// protocol are the two implementations.
type Protocol interface {
	// Name identifies the protocol in logs and metrics ("json", "pg").
	Name() string
	// Serve handles one accepted connection until it ends. The
	// transport closes the socket and the session after Serve returns;
	// Serve must consult c.Closing after each request and return when
	// it reports true, and return without writing when c.Guard reports
	// false.
	Serve(c *Conn)
	// Refuse reports a transport-level refusal (connection limit) to a
	// connection that will not be served, in the protocol's own wire
	// format, and closes it.
	Refuse(nc net.Conn, msg string)
	// Expire writes the protocol's reply for a statement that ran past
	// limit. The transport's watchdog calls it while the connection's own
	// goroutine is still inside that statement, so it may use nothing of
	// the connection but nc, and the transport closes nc when it returns.
	Expire(nc net.Conn, limit time.Duration)
}

// MaxRequestLen bounds one request of either protocol — a line-JSON
// line or a PostgreSQL frontend message. Nothing legitimate is larger,
// and an unbounded request is unbounded daemon memory before any
// identity is known.
const MaxRequestLen = 16 << 20

// replyWriteTimeout bounds one reply's socket write, so a client that
// stops reading cannot pin its goroutine, session and writer lock.
const replyWriteTimeout = 30 * time.Second

// refusalWriteTimeout bounds the writes made for connections that are
// not (or no longer) served: refusals and timeout replies.
const refusalWriteTimeout = 5 * time.Second

// The connection's state word (Conn.stmt). A positive value is the
// third state: a statement is running and the value is its deadline, in
// nanoseconds since the server's epoch.
const (
	// connIdle: no statement is running; the connection's goroutine
	// owns the socket.
	connIdle int64 = 0
	// connClosed: the connection is finished. Whoever moves the word
	// here releases the transport slot — the watchdog when a statement
	// outran its deadline, serveConn otherwise — so it happens once.
	connClosed int64 = -1
)

// Conn is the transport-level state of one accepted connection, shared
// by every protocol implementation: the network socket, the
// connection's engine session, and the timeout/drain machinery.
type Conn struct {
	srv  *Server
	l    *listener
	nc   net.Conn
	sess *engine.Session

	// stmt arbitrates "statement finished" against "watchdog fired":
	// Guard publishes the deadline and takes it back with one
	// compare-and-swap each; the watchdog swaps an expired deadline for
	// connClosed. Exactly one of the two swaps succeeds.
	stmt atomic.Int64
	// watchdog is the connection's one timer (nil without a query
	// timeout). It is never reset per statement: each firing reads stmt
	// and re-arms itself for the published deadline, or for a full
	// timeout when idle — no statement that starts later can expire
	// sooner.
	watchdog *time.Timer

	// pending holds the arrival times of statements whose replies are
	// not yet on the socket; Write observes their latencies.
	pending []time.Time
	// dead marks the connection for closing after the current response
	// (client quit). Only the connection's own goroutine touches it.
	dead bool
}

// NetConn returns the underlying network connection.
func (c *Conn) NetConn() net.Conn { return c.nc }

// Session is the engine session owned by this connection.
func (c *Conn) Session() *engine.Session { return c.sess }

// Engine is the served engine.
func (c *Conn) Engine() *engine.Engine { return c.srv.eng }

// Logger returns the transport's structured logger.
func (c *Conn) Logger() *slog.Logger { return c.srv.log }

// Stats snapshots the shared obs registry (the wire "stats" surface).
func (c *Conn) Stats() map[string]int64 { return c.srv.Stats() }

// MarkDead flags the connection for closing once the current response
// has been written.
func (c *Conn) MarkDead() { c.dead = true }

// Closing reports whether the connection must stop serving requests:
// the transport is draining or the connection was marked dead.
func (c *Conn) Closing() bool { return c.srv.draining.Load() || c.dead }

// ArmIdleDeadline applies the transport's idle timeout to the next
// read; protocols call it before blocking for a request.
func (c *Conn) ArmIdleDeadline() {
	if c.srv.cfg.IdleTimeout > 0 {
		c.nc.SetReadDeadline(time.Now().Add(c.srv.cfg.IdleTimeout))
	}
}

// Guard runs one statement, whose request arrived at t0, on the calling
// (the connection's own) goroutine under the transport's query timeout.
// f may build its reply in the connection's buffers but must not write
// the socket. Guard reports whether the connection still owns the
// socket: false means the statement outran the timeout and the
// watchdog has already answered for it, closed the socket and released
// the connection's slot — the caller must write nothing and return
// from Serve.
func (c *Conn) Guard(t0 time.Time, f func()) bool {
	deadline := int64(math.MaxInt64) // no deadline published: never expires
	if q := c.srv.cfg.QueryTimeout; q > 0 {
		deadline = int64(t0.Sub(c.srv.epoch) + q)
	}
	c.stmt.Store(deadline)
	f()
	if !c.stmt.CompareAndSwap(deadline, connIdle) {
		return false
	}
	c.pending = append(c.pending, t0)
	return true
}

// watch is the watchdog timer's function. A firing that finds the
// connection idle, or its statement's deadline still ahead, is stale or
// early and only re-arms; one that finds the deadline passed races the
// statement's end for the state word and, winning, expires the
// connection.
func (c *Conn) watch() {
	for {
		d := c.stmt.Load()
		if d == connClosed {
			return
		}
		wait := c.srv.cfg.QueryTimeout
		if d != connIdle {
			if wait = time.Duration(d) - time.Since(c.srv.epoch); wait <= 0 {
				if c.stmt.CompareAndSwap(d, connClosed) {
					c.expire()
					return
				}
				continue // the statement ended first; look again
			}
		}
		c.watchdog.Reset(wait)
		return
	}
}

// expire ends a connection whose statement outran the query timeout,
// from the watchdog: the connection's goroutine is still inside the
// statement and cannot answer, so the watchdog does — and it, not the
// stuck goroutine, frees the slot, or one runaway statement would wedge
// Shutdown and hold a MaxConns place for as long as it runs.
func (c *Conn) expire() {
	c.srv.queryTimeouts.Add(1)
	c.srv.log.Warn("query timeout", "protocol", c.l.proto.Name(),
		"remote", c.nc.RemoteAddr().String(),
		"user", c.sess.User(), "timeout", c.srv.cfg.QueryTimeout)
	c.nc.SetWriteDeadline(time.Now().Add(refusalWriteTimeout))
	c.l.proto.Expire(c.nc, c.srv.cfg.QueryTimeout)
	c.srv.release(c)
}

// Write sends reply bytes to the client under the transport's write
// deadline and observes the end-to-end latency of every statement the
// bytes answer. Only the connection's goroutine may call it, and never
// from inside Guard.
func (c *Conn) Write(b []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(c.srv.writeTimeout))
	_, err := c.nc.Write(b)
	if len(c.pending) > 0 {
		now := time.Now()
		for _, t0 := range c.pending {
			c.l.latency.ObserveDuration(now.Sub(t0))
		}
		c.pending = c.pending[:0]
	}
	return err
}

// Recycle empties a per-connection buffer for reuse, dropping it when
// one large request or reply grew it past what an idle connection
// should keep.
func Recycle(b []byte) []byte {
	if cap(b) > 1<<20 {
		return nil
	}
	return b[:0]
}
