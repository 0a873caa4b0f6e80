package pgwire

import (
	"strconv"
	"strings"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/engine"
)

// simpleQuery handles a 'Q' message: one or more statements separated
// by semicolons, each answered with RowDescription/DataRows and a
// CommandComplete, ending in ReadyForQuery. Processing stops at the
// first error. The whole script runs under the transport's query
// timeout; false means the connection is finished.
func (pc *pgConn) simpleQuery(payload []byte) bool {
	t0 := time.Now()
	pr := payloadReader{b: payload}
	// The engine keeps statement text (plan caches, the audit trail):
	// copy it out of the message buffer.
	sql := string(pr.cstr())
	if pr.err != nil {
		pc.buf.errorResponse(stateProtocolViolation, "malformed Query message")
		pc.p.errors.Inc()
		pc.buf.readyForQuery(pc.statusByte())
		return pc.flushOut()
	}
	if strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";")) == "" {
		pc.buf.emptyQueryResponse()
		pc.buf.readyForQuery(pc.statusByte())
		return pc.flushOut()
	}

	// SET/SHOW/RESET never reach the engine; psql and drivers issue
	// them freely and they must work even mid-drain of a transaction.
	// Only a single-statement script qualifies — a SET leading a
	// multi-statement script would swallow the rest.
	if res, handled, err := utilityIfSingle(pc.sess, sql, isSingleStatement(sql)); handled {
		if err != nil {
			pc.buf.errorResponse(sqlstateFor(err), err.Error())
			pc.p.errors.Inc()
			pc.hadErr = true
		} else {
			pc.writeUtility(res)
		}
		pc.buf.readyForQuery(pc.statusByte())
		return pc.flushOut()
	}

	// The script runs here, on the connection's goroutine, and renders
	// each statement's result into pc.buf as it completes; nothing
	// reaches the socket until Guard says the connection still owns it.
	hadErr := false
	if !pc.tc.Guard(t0, func() {
		pc.sess.NoteTransport("pg", time.Since(t0))
		err := pc.sess.ExecMulti(sql, func(stmt ast.Stmt, res *engine.Result, err error) bool {
			if hadErr = err != nil; hadErr {
				pc.buf.errorResponse(sqlstateFor(err), err.Error())
				return false
			}
			pc.writeResult(stmt, res)
			return true
		})
		if err != nil { // parse error: nothing ran
			pc.buf.errorResponse(sqlstateFor(err), err.Error())
			hadErr = true
		}
	}) {
		return false
	}
	if hadErr {
		pc.p.errors.Inc()
	}
	pc.hadErr = hadErr
	pc.buf.readyForQuery(pc.statusByte())
	return pc.flushOut()
}

// utilityIfSingle applies tryUtility only to single-statement scripts.
func utilityIfSingle(sess *engine.Session, sql string, single bool) (*utilityResult, bool, error) {
	if !single {
		return nil, false, nil
	}
	return tryUtility(sess, sql)
}

// writeResult renders one executed statement: result rows when the
// statement produced a schema, the audit notice when a SELECT trigger
// fired, and the command tag.
func (pc *pgConn) writeResult(stmt ast.Stmt, res *engine.Result) {
	if len(res.Columns) > 0 {
		pc.buf.rowDescription(res.Columns, res.Kinds)
		for _, row := range res.Rows {
			pc.buf.dataRow(row)
		}
	}
	writeAuditNotice(&pc.buf, res)
	pc.buf.commandComplete(commandTag(stmt, res, len(res.Rows)))
}

// writeUtility renders a front-door SET/SHOW/RESET result.
func (pc *pgConn) writeUtility(res *utilityResult) {
	if len(res.cols) > 0 {
		pc.buf.rowDescription(res.cols, res.kinds)
		for _, row := range res.rows {
			pc.buf.dataRow(row)
		}
	}
	pc.buf.commandComplete(res.tag, -1)
}

// writeAuditNotice mirrors the line-JSON "audited" response field: a
// NOTICE naming each audit expression the statement's ACCESSED state
// matched (in name order) and how many distinct IDs it recorded, so
// psql users see SELECT triggers fire inline.
func writeAuditNotice(w *writer, res *engine.Result) {
	if res.Accessed == nil {
		return
	}
	exprs := res.Accessed.Expressions()
	if len(exprs) == 0 {
		return
	}
	at := w.beginFields(msgNoticeResponse, "NOTICE", "00000")
	w.out = append(w.out, "audit:"...)
	for _, name := range exprs {
		w.out = append(w.out, ' ')
		w.out = append(w.out, name...)
		w.out = append(w.out, '=')
		w.out = strconv.AppendInt(w.out, int64(res.Accessed.Len(name)), 10)
	}
	if res.QID != 0 {
		// The query ID keys the retained trace in sys.traces and sys.spans.
		w.out = append(w.out, " qid="...)
		w.out = strconv.AppendUint(w.out, res.QID, 10)
	}
	w.endFields(at)
}

// commandTag is the CommandComplete tag for an executed statement, as
// writer.commandComplete takes it: the tag word and its count, -1 for
// none. rows is the number of rows sent to the client by this execution
// (for suspended portals that may be fewer than len(res.Rows)).
func commandTag(stmt ast.Stmt, res *engine.Result, rows int) (tag string, n int) {
	switch stmt.(type) {
	case *ast.Select:
		return "SELECT", rows
	case *ast.Insert:
		return "INSERT 0", res.RowsAffected
	case *ast.Update:
		return "UPDATE", res.RowsAffected
	case *ast.Delete:
		return "DELETE", res.RowsAffected
	case *ast.CreateTable:
		return "CREATE TABLE", -1
	case *ast.CreateIndex:
		return "CREATE INDEX", -1
	case *ast.CreateView:
		return "CREATE VIEW", -1
	case *ast.CreateTrigger:
		return "CREATE TRIGGER", -1
	case *ast.CreateAuditExpression:
		return "CREATE AUDIT EXPRESSION", -1
	case *ast.DropTable:
		return "DROP TABLE", -1
	case *ast.DropIndex:
		return "DROP INDEX", -1
	case *ast.DropView:
		return "DROP VIEW", -1
	case *ast.DropTrigger:
		return "DROP TRIGGER", -1
	case *ast.DropAuditExpression:
		return "DROP AUDIT EXPRESSION", -1
	case *ast.TxBegin:
		return "BEGIN", -1
	case *ast.TxCommit:
		return "COMMIT", -1
	case *ast.TxRollback:
		return "ROLLBACK", -1
	case *ast.Explain:
		return "EXPLAIN", -1
	case *ast.VerifyAuditLog:
		return "VERIFY AUDIT LOG", -1
	default:
		if len(res.Columns) > 0 {
			return "SELECT", rows
		}
		return "OK", -1
	}
}
