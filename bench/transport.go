package main

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"auditdb"
	"auditdb/internal/client"
	"auditdb/internal/pgwire/pgtest"
	"auditdb/internal/value"
)

// reply is what an executor read back, reduced to what the oracle
// checks.
type reply struct {
	rows   int // result rows, or rows affected for DML
	acc    int // ACCESSED count for the workload's audit expression
	key    int64
	hasKey bool // first cell of the first row was an integer
	digest uint64
}

// correct is the oracle: an operation that returns the wrong rows or
// the wrong ACCESSED count has failed, whatever its latency.
func (o *op) correct(r *reply) bool {
	switch o.kind {
	case opControl:
		return true
	case opDML:
		return r.rows == o.wantRows
	}
	if r.rows != o.wantRows || r.acc != o.wantAcc {
		return false
	}
	if o.wantKey && (!r.hasKey || r.key != o.args[0]) {
		return false
	}
	return !o.checkDigest || r.digest == o.wantDigest
}

// stmtError is a statement the system refused or failed: the operation
// counts as failed, the session or connection stays usable.
type stmtError struct{ err error }

func (e *stmtError) Error() string { return e.err.Error() }

// executor is one client's way into the system: an in-process session
// or one connection of one wire protocol. do blocks until the full
// reply has been read.
type executor interface {
	do(o *op, r *reply) error
	close()
}

// embeddedExec drives auditdb.Session.Exec in process.
type embeddedExec struct {
	s    *auditdb.Session
	expr string
}

func (e *embeddedExec) do(o *op, r *reply) error {
	res, err := e.s.Exec(o.sql)
	if err != nil {
		return &stmtError{err}
	}
	*r = reply{}
	if o.kind != opSelect {
		r.rows = res.RowsAffected
		return nil
	}
	r.rows = len(res.Rows)
	r.acc = res.AccessedCount(e.expr)
	if o.checkDigest {
		r.digest = digestRows(res.Rows)
	}
	if r.rows > 0 && len(res.Rows[0]) > 0 && res.Rows[0][0].Kind == value.KindInt {
		r.key, r.hasKey = res.Rows[0][0].Int(), true
	}
	return nil
}

func (e *embeddedExec) close() { e.s.Close() }

// jsonExec speaks line-JSON through internal/client: "query" for
// SELECTs, "exec" for everything else.
type jsonExec struct {
	c    *client.Client
	expr string
}

func (e *jsonExec) do(o *op, r *reply) error {
	var res *client.Result
	var err error
	if o.kind == opSelect {
		res, err = e.c.Query(o.sql)
	} else {
		res, err = e.c.Exec(o.sql)
	}
	if err != nil {
		var se *client.ServerError
		if errors.As(err, &se) {
			return &stmtError{err}
		}
		return err
	}
	*r = reply{}
	if o.kind != opSelect {
		r.rows = res.RowsAffected
		return nil
	}
	r.rows = len(res.Rows)
	r.acc = res.Audited[e.expr]
	if r.rows > 0 && len(res.Rows[0]) > 0 {
		r.key, r.hasKey = res.Rows[0][0].(int64)
	}
	return nil
}

func (e *jsonExec) close() { e.c.Close() }

// pgExec speaks the PostgreSQL wire protocol through pgtest. In
// extended mode a template is Parsed once per connection and each
// operation is Bind/Execute/Sync; in simple mode every operation is
// one Query message carrying the rendered text.
type pgExec struct {
	c        *pgtest.Client
	expr     string
	extended bool
	parsed   map[int]string // template id -> statement name
	params   [][]byte
	digest   bool // fold every row into reply.digest (scan_analytic)
}

func dialPG(addr, user, expr string, extended, digest bool) (*pgExec, error) {
	c, _, err := pgtest.Dial(addr, user)
	if err != nil {
		return nil, err
	}
	return &pgExec{c: c, expr: expr, extended: extended, digest: digest, parsed: map[int]string{}}, nil
}

func (e *pgExec) do(o *op, r *reply) error {
	// A reply slower than the harness's own ceiling is a failed
	// operation, not a hung benchmark.
	e.c.SetDeadline(time.Now().Add(opTimeout))
	if e.extended && o.tmpl != nil {
		name, ok := e.parsed[o.tmpl.id]
		if !ok {
			name = "t" + strconv.Itoa(o.tmpl.id)
			if err := e.c.Parse(name, o.tmpl.pg, nil); err != nil {
				return err
			}
			e.parsed[o.tmpl.id] = name
		}
		e.params = e.params[:0]
		for i := 0; i < o.nargs; i++ {
			e.params = append(e.params, strconv.AppendInt(nil, o.args[i], 10))
		}
		if err := e.c.Bind("", name, e.params); err != nil {
			return err
		}
		if err := e.c.Execute("", 0); err != nil {
			return err
		}
		if err := e.c.Sync(); err != nil {
			return err
		}
	} else if err := e.c.Query(o.sql); err != nil {
		return err
	}
	return e.readReply(r)
}

func (e *pgExec) readReply(r *reply) error {
	*r = reply{}
	var d rowDigest
	var srvErr error
	for {
		m, err := e.c.ReadMessage()
		if err != nil {
			return err
		}
		switch m.Type {
		case 'D':
			if r.rows == 0 || e.digest {
				row, err := pgtest.DataRow(m.Body)
				if err != nil {
					return err
				}
				if r.rows == 0 && len(row) > 0 {
					if k, err := strconv.ParseInt(string(row[0]), 10, 64); err == nil {
						r.key, r.hasKey = k, true
					}
				}
				if e.digest {
					d.beginRow()
					for _, cell := range row {
						d.cell(cell)
					}
					d.endRow()
				}
			}
			r.rows++
		case 'N':
			r.acc = noticeCount(pgtest.ErrorFields(m.Body)['M'], e.expr)
		case 'E':
			f := pgtest.ErrorFields(m.Body)
			srvErr = &stmtError{fmt.Errorf("pg error %s: %s", f['C'], f['M'])}
		case 'Z':
			r.digest = d.sum
			return srvErr
		}
	}
}

// noticeCount extracts n from "audit: ... <expr>=n ..." (0 if absent).
func noticeCount(msg, expr string) int {
	_, rest, ok := strings.Cut(msg, expr+"=")
	if !ok {
		return 0
	}
	digits, _, _ := strings.Cut(rest, " ")
	n, _ := strconv.Atoi(digits)
	return n
}

func (e *pgExec) close() {
	e.c.Terminate()
	e.c.Close()
}
