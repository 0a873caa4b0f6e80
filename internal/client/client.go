// Package client is the Go client for auditdbd's line protocol. A
// Client is one server session: the user set with SetUser is the
// identity the server's SELECT triggers record for every query sent
// through this connection. Dial retries with backoff so daemons and
// tests can connect while the server is still coming up.
package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"sync"
	"time"

	"auditdb/internal/wire"
)

// ServerError is a failure reported by the server (SQL errors, limit
// rejections, timeouts) as opposed to a transport failure.
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return e.Msg }

// Result is one statement's outcome. Row scalars are nil, bool, int64,
// float64, or string (dates arrive as "YYYY-MM-DD" strings).
type Result struct {
	Columns      []string
	Rows         [][]any
	RowsAffected int
	// Audited maps audit-expression name to the number of sensitive
	// partition keys this statement accessed.
	Audited map[string]int
	// QID is the query ID the server's tracer assigned; select sys.spans
	// WHERE qid = QID to read the retained span tree.
	QID uint64
}

type options struct {
	attempts    int
	backoff     time.Duration
	dialTimeout time.Duration
}

// Option configures Dial.
type Option func(*options)

// WithRetry sets how many connection attempts to make and the delay
// between them (the delay doubles each failure).
func WithRetry(attempts int, backoff time.Duration) Option {
	return func(o *options) { o.attempts, o.backoff = attempts, backoff }
}

// WithDialTimeout bounds each individual connection attempt.
func WithDialTimeout(d time.Duration) Option {
	return func(o *options) { o.dialTimeout = d }
}

// Client is one connection to an auditdbd server. It is safe for
// concurrent use; requests are serialized over the single connection.
type Client struct {
	mu sync.Mutex
	nc net.Conn
	r  *bufio.Reader
}

// Dial connects to an auditdbd server, retrying with exponential
// backoff per WithRetry (default: 5 attempts starting at 50ms).
func Dial(addr string, opts ...Option) (*Client, error) {
	o := options{attempts: 5, backoff: 50 * time.Millisecond, dialTimeout: 2 * time.Second}
	for _, fn := range opts {
		fn(&o)
	}
	if o.attempts < 1 {
		o.attempts = 1
	}
	var lastErr error
	delay := o.backoff
	for i := 0; i < o.attempts; i++ {
		if i > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		nc, err := net.DialTimeout("tcp", addr, o.dialTimeout)
		if err != nil {
			lastErr = err
			continue
		}
		return &Client{nc: nc, r: bufio.NewReaderSize(nc, 64<<10)}, nil
	}
	return nil, fmt.Errorf("dial %s: %w", addr, lastErr)
}

// Close tells the server goodbye and closes the connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	// Best effort: the server also cleans up on bare disconnect.
	if b, err := json.Marshal(&wire.Request{Op: wire.OpQuit}); err == nil {
		c.nc.SetWriteDeadline(time.Now().Add(time.Second))
		c.nc.Write(append(b, '\n'))
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

func (c *Client) roundTrip(req *wire.Request) (*wire.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil, fmt.Errorf("client is closed")
	}
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	if _, err := c.nc.Write(append(b, '\n')); err != nil {
		return nil, fmt.Errorf("send: %w", err)
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("receive: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	var resp wire.Response
	if err := dec.Decode(&resp); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if !resp.OK {
		return nil, &ServerError{Msg: resp.Error}
	}
	return &resp, nil
}

func toResult(resp *wire.Response) *Result {
	res := &Result{
		Columns:      resp.Columns,
		Rows:         resp.Rows,
		RowsAffected: resp.RowsAffected,
		Audited:      resp.Audited,
		QID:          resp.QID,
	}
	// Normalize json.Number cells into int64/float64.
	for _, row := range res.Rows {
		for i, cell := range row {
			if n, ok := cell.(json.Number); ok {
				if v, err := n.Int64(); err == nil {
					row[i] = v
				} else if f, err := n.Float64(); err == nil {
					row[i] = f
				}
			}
		}
	}
	return res
}

// Exec runs a statement or semicolon-separated script.
func (c *Client) Exec(sql string) (*Result, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpExec, SQL: sql})
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// Query runs a single SELECT (audited server-side as usual).
func (c *Client) Query(sql string) (*Result, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpQuery, SQL: sql})
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// SetUser sets this session's identity — what USERID() returns in
// trigger actions fired by this connection's queries.
func (c *Client) SetUser(u string) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpSet, Key: wire.KeyUser, Value: u})
	return err
}

// SetAuditAll toggles audit-all instrumentation for this session.
func (c *Client) SetAuditAll(on bool) error {
	v := "off"
	if on {
		v = "on"
	}
	_, err := c.roundTrip(&wire.Request{Op: wire.OpSet, Key: wire.KeyAuditAll, Value: v})
	return err
}

// SetWorkers sets this session's parallel-execution worker budget:
// 1 forces serial execution, 0 resets to the server default.
func (c *Client) SetWorkers(n int) error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpSet, Key: wire.KeyWorkers, Value: strconv.Itoa(n)})
	return err
}

// SetSkipping toggles chunk skipping (zone maps + sensitive-ID
// sketches) for this session's scans. Results and the audit trail are
// identical either way; off is for measurement.
func (c *Client) SetSkipping(on bool) error {
	v := "off"
	if on {
		v = "on"
	}
	_, err := c.roundTrip(&wire.Request{Op: wire.OpSet, Key: wire.KeySkipping, Value: v})
	return err
}

// Stats fetches the server's merged engine+server counters.
func (c *Client) Stats() (map[string]int64, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpStats})
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// Ping round-trips a no-op.
func (c *Client) Ping() error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpPing})
	return err
}

// VerifyResult is the server's audit-trail integrity verdict.
type VerifyResult struct {
	Valid   bool
	Records uint64
	Head    string
	Reason  string
}

// VerifyAuditLog asks the server to re-read its on-disk audit trail
// and check the hash chain. A nil error with Valid=false means the
// check ran and found tampering or truncation; an error means the
// check itself could not run (e.g. durability is disabled).
func (c *Client) VerifyAuditLog() (*VerifyResult, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpVerifyAudit})
	if err != nil {
		return nil, err
	}
	if resp.Verify == nil {
		return nil, fmt.Errorf("server returned no verify result")
	}
	return &VerifyResult{
		Valid:   resp.Verify.Valid,
		Records: resp.Verify.Records,
		Head:    resp.Verify.Head,
		Reason:  resp.Verify.Reason,
	}, nil
}

// Checkpoint asks the server to snapshot the database and truncate
// covered WAL segments.
func (c *Client) Checkpoint() error {
	_, err := c.roundTrip(&wire.Request{Op: wire.OpCheckpoint})
	return err
}

// Stmt is a server-side prepared statement bound to this connection's
// session.
type Stmt struct {
	c         *Client
	id        int
	numParams int
}

// Prepare parses a ?-parameterized statement server-side.
func (c *Client) Prepare(sql string) (*Stmt, error) {
	resp, err := c.roundTrip(&wire.Request{Op: wire.OpPrepare, SQL: sql})
	if err != nil {
		return nil, err
	}
	return &Stmt{c: c, id: resp.Stmt, numParams: resp.NumParams}, nil
}

// NumParams reports how many ? placeholders the statement declares.
func (s *Stmt) NumParams() int { return s.numParams }

// Run executes the prepared statement with the given parameters
// (nil, bool, int, int64, float64, or string).
func (s *Stmt) Run(args ...any) (*Result, error) {
	params := make([]any, len(args))
	for i, a := range args {
		switch a.(type) {
		case nil, bool, int, int64, float64, string:
			params[i] = a
		default:
			return nil, fmt.Errorf("parameter %d: unsupported type %T", i+1, a)
		}
	}
	resp, err := s.c.roundTrip(&wire.Request{Op: wire.OpRun, Stmt: s.id, Params: params})
	if err != nil {
		return nil, err
	}
	return toResult(resp), nil
}

// Close drops the server-side statement.
func (s *Stmt) Close() error {
	_, err := s.c.roundTrip(&wire.Request{Op: wire.OpCloseStmt, Stmt: s.id})
	return err
}
