package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
	"time"

	"auditdb/internal/engine"
	"auditdb/internal/value"
	"auditdb/internal/wire"
)

// jsonProtocol is the built-in line-delimited JSON wire format
// (package wire) as a transport Protocol.
type jsonProtocol struct{}

func (jsonProtocol) Name() string { return "json" }

// Refuse sends a one-line error to a connection that will not be
// served (connection limit) and closes it.
func (jsonProtocol) Refuse(nc net.Conn, msg string) {
	nc.SetWriteDeadline(time.Now().Add(refusalWriteTimeout))
	nc.Write(appendResponse(nil, &wire.Response{Error: msg}))
	nc.Close()
}

// Expire answers a statement that outran the query timeout.
func (jsonProtocol) Expire(nc net.Conn, limit time.Duration) {
	nc.Write(appendResponse(nil, errResp("statement exceeded query timeout %s; closing connection", limit)))
}

func (jsonProtocol) Serve(tc *Conn) {
	c := &jsonConn{
		tc:    tc,
		r:     bufio.NewReaderSize(tc.NetConn(), 64<<10),
		sess:  tc.Session(),
		stmts: make(map[int]*engine.Prepared),
	}
	c.serve()
}

// jsonConn is one served line-JSON connection: its prepared statements
// and the line codec over the transport's Conn.
type jsonConn struct {
	tc *Conn
	r  *bufio.Reader
	// long holds a request line too long for r's buffer; out is the
	// reply being built. Both are reused from request to request.
	long, out []byte

	sess     *engine.Session
	stmts    map[int]*engine.Prepared
	nextStmt int
	// req is the current request; reqT0 marks when its line arrived —
	// statement ops report time-to-execution as the trace's transport
	// phase.
	req   wire.Request
	reqT0 time.Time
}

func (c *jsonConn) serve() {
	for !c.tc.Closing() {
		c.tc.ArmIdleDeadline()
		line, err := c.readLine()
		if err == errLineTooLong {
			// The rest of the line is unread and unbounded: answer and
			// hang up rather than scan for its end.
			c.tc.Write(appendResponse(nil, errResp("bad request: line exceeds %d bytes; closing connection", MaxRequestLen)))
			return
		}
		if err != nil {
			// EOF, idle timeout, or the shutdown nudge.
			return
		}
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		c.reqT0 = time.Now()
		if err := wire.DecodeRequest(line, &c.req); err != nil {
			c.out = appendResponse(c.out, errResp("bad request: %v", err))
		} else if !c.dispatch(&c.req) {
			return
		}
		err = c.tc.Write(c.out)
		c.out = Recycle(c.out)
		if err != nil {
			return
		}
	}
}

var errLineTooLong = errors.New("request line too long")

// readLine returns the next request line, valid until the following
// call. Lines that fit the reader's buffer are returned in place;
// longer ones accumulate in c.long, up to MaxRequestLen.
func (c *jsonConn) readLine() ([]byte, error) {
	c.long = Recycle(c.long)
	line, err := c.r.ReadSlice('\n')
	if err != bufio.ErrBufferFull {
		return line, err
	}
	c.long = append(c.long, line...)
	for err == bufio.ErrBufferFull {
		if len(c.long) > MaxRequestLen {
			return nil, errLineTooLong
		}
		line, err = c.r.ReadSlice('\n')
		c.long = append(c.long, line...)
	}
	return c.long, err
}

// appendResponse appends one reply line through encoding/json; every
// reply but a statement's result goes this way.
func appendResponse(dst []byte, resp *wire.Response) []byte {
	b, err := json.Marshal(resp)
	if err != nil {
		b, _ = json.Marshal(errResp("encoding response: %v", err))
	}
	return append(append(dst, b...), '\n')
}

func errResp(format string, args ...any) *wire.Response {
	return &wire.Response{Error: fmt.Sprintf(format, args...)}
}

// dispatch handles one request, leaving its reply line in c.out. It
// returns false when there is nothing to send and the connection is
// over: the request's statement outran the query timeout and the
// transport already answered.
func (c *jsonConn) dispatch(req *wire.Request) bool {
	var resp *wire.Response
	switch req.Op {
	case wire.OpPing:
		resp = &wire.Response{OK: true}
	case wire.OpQuit:
		c.tc.MarkDead()
		resp = &wire.Response{OK: true}
	case wire.OpStats:
		resp = &wire.Response{OK: true, Stats: c.tc.Stats()}
	case wire.OpSet:
		resp = c.set(req.Key, req.Value)
	case wire.OpExec:
		return c.statement(func() (*engine.Result, error) { return c.sess.ExecScript(req.SQL) })
	case wire.OpQuery:
		return c.statement(func() (*engine.Result, error) { return c.sess.Query(req.SQL) })
	case wire.OpPrepare:
		p, err := c.sess.Prepare(req.SQL)
		if err != nil {
			resp = errResp("%v", err)
			break
		}
		c.nextStmt++
		c.stmts[c.nextStmt] = p
		resp = &wire.Response{OK: true, Stmt: c.nextStmt, NumParams: p.NumParams()}
	case wire.OpRun:
		p, ok := c.stmts[req.Stmt]
		if !ok {
			resp = errResp("unknown prepared statement %d", req.Stmt)
			break
		}
		params := make([]value.Value, len(req.Params))
		for i, raw := range req.Params {
			v, err := wire.ParamToValue(raw)
			if err != nil {
				resp = errResp("parameter %d: %v", i+1, err)
				break
			}
			params[i] = v
		}
		if resp == nil {
			return c.statement(func() (*engine.Result, error) { return p.Run(params...) })
		}
	case wire.OpCloseStmt:
		delete(c.stmts, req.Stmt)
		resp = &wire.Response{OK: true}
	case wire.OpVerifyAudit:
		rep, err := c.tc.Engine().VerifyAuditLog()
		if err != nil {
			resp = errResp("%v", err)
			break
		}
		resp = &wire.Response{OK: true, Verify: &wire.VerifyResult{
			Valid:   rep.Valid,
			Records: rep.Records,
			Head:    rep.HeadHex,
			Reason:  rep.Reason,
		}}
	case wire.OpCheckpoint:
		// Checkpoints exclude all writers; run under the query timeout so
		// a wedged one cannot hold the connection forever.
		return c.statement(func() (*engine.Result, error) {
			return &engine.Result{}, c.tc.Engine().Checkpoint()
		})
	default:
		resp = errResp("unknown op %q", req.Op)
	}
	c.out = appendResponse(c.out, resp)
	return true
}

// statement runs one statement op under the transport's query timeout
// and encodes its result; false means the timeout won (see dispatch).
func (c *jsonConn) statement(run func() (*engine.Result, error)) bool {
	var res *engine.Result
	var err error
	if !c.tc.Guard(c.reqT0, func() {
		c.sess.NoteTransport("json", time.Since(c.reqT0))
		res, err = run()
	}) {
		return false
	}
	if err == nil {
		mark := len(c.out)
		if c.out, err = appendResult(c.out, res); err == nil {
			return true
		}
		c.out = c.out[:mark]
		err = fmt.Errorf("encoding response: %w", err)
	}
	c.out = appendResponse(c.out, errResp("%v", err))
	return true
}

// appendResult appends a statement's reply line: the bytes
// json.Marshal gives for the wire.Response carrying r — field order,
// omitted empties, sorted "audited" keys, escaping — built straight
// from the engine's rows.
func appendResult(dst []byte, r *engine.Result) ([]byte, error) {
	dst = append(dst, `{"ok":true`...)
	if len(r.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, name := range r.Columns {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = wire.AppendString(dst, name)
		}
		dst = append(dst, ']')
	}
	if len(r.Rows) > 0 {
		dst = append(dst, `,"rows":[`...)
		for i, row := range r.Rows {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, '[')
			for j, v := range row {
				if j > 0 {
					dst = append(dst, ',')
				}
				var ok bool
				if dst, ok = wire.AppendValue(dst, v); !ok {
					return dst, &json.UnsupportedValueError{Str: v.String()}
				}
			}
			dst = append(dst, ']')
		}
		dst = append(dst, ']')
	}
	if r.RowsAffected != 0 {
		dst = append(dst, `,"rows_affected":`...)
		dst = strconv.AppendInt(dst, int64(r.RowsAffected), 10)
	}
	if r.QID != 0 {
		dst = append(dst, `,"qid":`...)
		dst = strconv.AppendUint(dst, r.QID, 10)
	}
	if r.Accessed != nil {
		// Expressions is sorted bytewise, which is json.Marshal's map
		// key order.
		exprs := r.Accessed.Expressions()
		for i, name := range exprs {
			if i == 0 {
				dst = append(dst, `,"audited":{`...)
			} else {
				dst = append(dst, ',')
			}
			dst = wire.AppendString(dst, name)
			dst = append(dst, ':')
			dst = strconv.AppendInt(dst, int64(r.Accessed.Len(name)), 10)
		}
		if len(exprs) > 0 {
			dst = append(dst, '}')
		}
	}
	return append(dst, '}', '\n'), nil
}

func (c *jsonConn) set(key, val string) *wire.Response {
	if key == wire.KeyUser {
		if val == "" {
			return errResp("set user: empty name")
		}
		c.sess.SetUser(val)
		c.tc.Logger().Info("session user set", "remote", c.tc.NetConn().RemoteAddr().String(), "user", val)
		return &wire.Response{OK: true}
	}
	st := engine.LookupSetting(key)
	if st == nil {
		return errResp("unknown setting %q", key)
	}
	if err := st.Set(c.sess, val); err != nil {
		return errResp("set: %v", err)
	}
	return &wire.Response{OK: true}
}
