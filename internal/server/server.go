// Package server runs an audited engine as a concurrent network
// daemon behind a protocol-agnostic transport. Each accepted
// connection gets its own goroutine and its own engine.Session, so
// USERID() in SELECT-trigger actions attributes every access to the
// connection that made it — the paper's §II multi-user setting, which
// an in-process engine with one global user cannot provide.
//
// The transport (Server) owns accept loops, connection limits, per-
// connection sessions, idle and query timeouts, and graceful drain —
// shared across every listener. Wire formats plug in as Protocol
// implementations: the built-in line-delimited JSON protocol (package
// wire) and the PostgreSQL v3 wire protocol (package pgwire) front the
// same request path.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"auditdb/internal/engine"
	"auditdb/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// Addr is the line-JSON TCP listen address, e.g. "127.0.0.1:5433".
	// ":0" picks a free port (see Server.Addr). Empty disables the
	// line-JSON listener (another protocol must be added with
	// AddListener before Start).
	Addr string
	// MaxConns caps concurrently served connections across all
	// listeners; 0 means unlimited. Excess connections are refused with
	// a protocol-appropriate error response.
	MaxConns int
	// QueryTimeout bounds each statement's execution; 0 disables it. A
	// connection whose statement times out receives an error response
	// and is closed at the deadline; the statement itself is not
	// interrupted, and its session is cleaned up once it finishes.
	QueryTimeout time.Duration
	// IdleTimeout closes connections with no request for this long; 0
	// disables it.
	IdleTimeout time.Duration
	// Logger receives structured connection-lifecycle events; nil
	// discards them. It is also installed on the engine so trigger
	// firings and slow queries land in the same stream.
	Logger *slog.Logger
}

// listener is one protocol front end bound to an address.
type listener struct {
	proto   Protocol
	addr    string
	ln      net.Listener
	active  atomic.Int64
	latency *obs.Histogram
}

// Server is the protocol-agnostic session transport: it serves one
// engine over any number of protocol listeners, with connection
// limits, timeouts, and graceful drain accounted across all of them.
type Server struct {
	eng *engine.Engine
	cfg Config
	log *slog.Logger
	// epoch is the zero of the statement deadlines published in
	// Conn.stmt (monotonic, so a wall-clock step cannot expire anything).
	epoch time.Time
	// writeTimeout is replyWriteTimeout, except in tests that cannot
	// wait that long.
	writeTimeout time.Duration

	listeners []*listener
	started   bool

	mu       sync.Mutex
	conns    map[*Conn]struct{}
	connWG   sync.WaitGroup
	draining atomic.Bool

	// Transport counters live in the engine's obs registry beside the
	// engine's own, so the wire "stats" op and /metrics read one source.
	connsTotal    *obs.Counter
	connsByProto  *obs.CounterVec
	connsRejected *obs.Counter
	queryTimeouts *obs.Counter
}

// New wraps an engine in an unstarted transport. When cfg.Addr is
// non-empty the built-in line-JSON protocol is registered on it;
// further protocols attach with AddListener.
func New(eng *engine.Engine, cfg Config) *Server {
	log := cfg.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	} else {
		eng.SetLogger(log)
	}
	r := eng.Metrics()
	s := &Server{
		eng:   eng,
		cfg:   cfg,
		log:   log,
		epoch: time.Now(),

		writeTimeout: replyWriteTimeout,

		connsTotal: r.NewCounter("auditdb_server_conns_total", "server_conns_total",
			"Connections accepted, all protocols."),
		connsByProto: r.NewCounterVec("auditdb_server_connections_total", "connections",
			"Connections accepted per protocol.", "protocol"),
		connsRejected: r.NewCounter("auditdb_server_conns_rejected_total", "server_conns_rejected",
			"Connections refused at the MaxConns limit."),
		queryTimeouts: r.NewCounter("auditdb_server_query_timeouts_total", "server_query_timeouts",
			"Statements killed by the query timeout."),
		conns: make(map[*Conn]struct{}),
	}
	r.NewGaugeFunc("auditdb_server_conns_active", "server_conns_active",
		"Connections currently served, all protocols.", func() int64 { return int64(s.activeConns()) })
	if cfg.Addr != "" {
		s.AddListener(cfg.Addr, jsonProtocol{})
	}
	return s
}

// AddListener registers a protocol front end on addr. It must be
// called before Start; listeners cannot be added to a running server.
func (s *Server) AddListener(addr string, proto Protocol) error {
	if s.started {
		return errors.New("auditdbd: AddListener after Start")
	}
	name := proto.Name()
	for _, l := range s.listeners {
		if l.proto.Name() == name {
			return fmt.Errorf("auditdbd: protocol %q already registered", name)
		}
	}
	r := s.eng.Metrics()
	l := &listener{
		proto: proto,
		addr:  addr,
		latency: r.NewHistogram("auditdb_server_query_seconds_"+name, "query_seconds_"+name,
			"End-to-end statement latency over the "+name+" protocol, request read to reply written (seconds).",
			obs.LatencyBuckets),
	}
	r.NewGaugeFunc("auditdb_server_conns_active_"+name, "conns_active_"+name,
		"Connections currently served over the "+name+" protocol.",
		func() int64 { return l.active.Load() })
	s.listeners = append(s.listeners, l)
	return nil
}

// Engine returns the served engine (daemon setup scripts use it).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Start binds every registered listener and begins accepting
// connections in background goroutines. It returns once all listeners
// are bound, so Addr()/ProtoAddr() are immediately valid. On error,
// listeners bound so far are closed.
func (s *Server) Start() error {
	if len(s.listeners) == 0 {
		return errors.New("auditdbd: no listeners registered")
	}
	s.started = true
	for _, l := range s.listeners {
		ln, err := net.Listen("tcp", l.addr)
		if err != nil {
			for _, prev := range s.listeners {
				if prev.ln != nil {
					prev.ln.Close()
				}
			}
			return fmt.Errorf("auditdbd: listen %s (%s): %w", l.addr, l.proto.Name(), err)
		}
		l.ln = ln
		s.log.Info("server listening", "protocol", l.proto.Name(),
			"addr", ln.Addr().String(),
			"max_conns", s.cfg.MaxConns, "query_timeout", s.cfg.QueryTimeout)
	}
	for _, l := range s.listeners {
		go s.acceptLoop(l)
	}
	return nil
}

// Addr is the first listener's bound address — the line-JSON listener
// when one is configured (useful with ":0").
func (s *Server) Addr() net.Addr { return s.listeners[0].ln.Addr() }

// ProtoAddr returns the bound address of the named protocol's
// listener, or nil if no such protocol is registered or bound.
func (s *Server) ProtoAddr(name string) net.Addr {
	for _, l := range s.listeners {
		if l.proto.Name() == name && l.ln != nil {
			return l.ln.Addr()
		}
	}
	return nil
}

func (s *Server) acceptLoop(l *listener) {
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			// Listener closed (shutdown) or fatal accept error.
			return
		}
		if s.draining.Load() {
			nc.Close()
			continue
		}
		// Connection limits are per-transport: every protocol's
		// connections count against one MaxConns budget.
		if s.cfg.MaxConns > 0 && s.activeConns() >= s.cfg.MaxConns {
			s.connsRejected.Add(1)
			s.log.Warn("connection refused", "protocol", l.proto.Name(),
				"remote", nc.RemoteAddr().String(), "limit", s.cfg.MaxConns)
			go l.proto.Refuse(nc, fmt.Sprintf("connection limit reached (%d)", s.cfg.MaxConns))
			continue
		}
		go s.serveConn(s.admit(l, nc))
	}
}

// ServeConn serves an already-established connection over the named
// registered protocol, as if its listener had accepted it, and returns
// when the connection ends. It bypasses the MaxConns check; tests and
// embedders use it to put the transport behind any net.Conn.
func (s *Server) ServeConn(protocol string, nc net.Conn) error {
	for _, l := range s.listeners {
		if l.proto.Name() == protocol {
			s.serveConn(s.admit(l, nc))
			return nil
		}
	}
	return fmt.Errorf("auditdbd: protocol %q not registered", protocol)
}

// admit registers an accepted connection with the transport — counters,
// its engine session, its slot and, under a query timeout, its watchdog
// — everything release and serveConn undo.
func (s *Server) admit(l *listener, nc net.Conn) *Conn {
	s.connsTotal.Add(1)
	s.connsByProto.With(l.proto.Name()).Add(1)
	s.log.Info("connection accepted", "protocol", l.proto.Name(),
		"remote", nc.RemoteAddr().String())
	c := &Conn{srv: s, l: l, nc: nc, sess: s.eng.NewSession()}
	if s.cfg.QueryTimeout > 0 {
		// Created unarmed and then armed, so the first firing cannot
		// run before c.watchdog is assigned.
		c.watchdog = time.AfterFunc(math.MaxInt64, c.watch)
		c.watchdog.Reset(s.cfg.QueryTimeout)
	}
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
	l.active.Add(1)
	s.connWG.Add(1) // release's Done
	return c
}

// serveConn owns the connection's lifecycle around the protocol's
// Serve. When Serve returns no statement is running, so the session —
// and with it any open transaction holding the writer lock — is closed
// here, on the goroutine that ran its statements: a rollback cannot
// race a running statement. The slot is released afterwards unless the
// watchdog already did (the connection's statement timed out and
// Serve returned only when it finally ended).
func (s *Server) serveConn(c *Conn) {
	c.l.proto.Serve(c)
	if c.watchdog != nil {
		c.watchdog.Stop()
	}
	owned := c.stmt.Swap(connClosed) != connClosed
	c.sess.Close()
	if owned {
		s.release(c)
	}
}

// release closes the connection's socket and gives back its transport
// slot: its place under MaxConns and in Shutdown's wait. It runs once
// per connection, on whichever side moved Conn.stmt to connClosed.
func (s *Server) release(c *Conn) {
	c.nc.Close()
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
	c.l.active.Add(-1)
	s.log.Info("connection closed", "protocol", c.l.proto.Name(),
		"remote", c.nc.RemoteAddr().String(), "user", c.sess.User())
	s.connWG.Done()
}

func (s *Server) activeConns() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// Stats returns the shared obs-registry snapshot: engine counters and
// server counters come from the same registry /metrics renders, so the
// wire op and the Prometheus endpoint can never disagree.
func (s *Server) Stats() map[string]int64 {
	return s.eng.StatsSnapshot()
}

// Metrics exposes the registry backing Stats so the daemon can mount
// it on an HTTP /metrics listener.
func (s *Server) Metrics() *obs.Registry { return s.eng.Metrics() }

// Shutdown stops accepting connections on every listener and drains
// gracefully: every in-flight statement — over any protocol — runs to
// completion and its response is written before the connection closes.
// If ctx expires first, remaining connections are closed forcibly and
// ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("auditdbd: already shut down")
	}
	s.log.Info("server draining", "active_conns", s.activeConns(),
		"listeners", len(s.listeners))
	for _, l := range s.listeners {
		if l.ln != nil {
			l.ln.Close()
		}
	}
	// Unblock connections idle in a read; busy ones notice draining
	// after writing their current response.
	s.mu.Lock()
	for c := range s.conns {
		c.nc.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.nc.Close()
		}
		s.mu.Unlock()
		return ctx.Err()
	}
}
