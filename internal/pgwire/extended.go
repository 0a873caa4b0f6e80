package pgwire

import (
	"fmt"
	"strings"
	"time"

	"auditdb/internal/engine"
	"auditdb/internal/value"
)

// pgStmt is a named (or unnamed) prepared statement created by Parse.
// The engine's server-side prepared statements use source-order ?
// placeholders while PostgreSQL's $n references repeat and reorder
// freely, so argMap records, for each ? in source order, which $n
// parameter binds it.
type pgStmt struct {
	name      string
	sql       string // original text, for utility statements
	prep      *engine.Prepared
	util      bool // SET/SHOW/RESET, handled by the front door
	empty     bool
	argMap    []int
	nParams   int      // highest $n referenced
	paramOIDs []uint32 // declared at Parse; 0 = unspecified (inferred)
	utilCols  []string // SHOW result shape, known at Parse time
	utilKinds []value.Kind
}

// pgPortal is a bound statement created by Bind. Results materialize
// at the first Execute; pos tracks row-limited (maxRows) resumption
// across Execute messages until the portal completes or closes.
type pgPortal struct {
	stmt   *pgStmt
	params []value.Value // engine source-order
	res    *engine.Result
	pos    int
	done   bool // all rows delivered; re-Execute completes with 0 rows
}

// takePortal returns an empty portal, recycling a destroyed one (and
// its parameter slice) when there is one.
func (pc *pgConn) takePortal() *pgPortal {
	n := len(pc.idle)
	if n == 0 {
		return &pgPortal{}
	}
	pt := pc.idle[n-1]
	pc.idle = pc.idle[:n-1]
	return pt
}

// dropPortal destroys the named portal, if it exists.
func (pc *pgConn) dropPortal(name []byte) {
	pt, ok := pc.portals[string(name)]
	if !ok {
		return
	}
	delete(pc.portals, string(name))
	pc.retire(pt)
}

// retire empties a destroyed portal, letting go of its result, and
// keeps it for takePortal.
func (pc *pgConn) retire(pt *pgPortal) {
	*pt = pgPortal{params: pt.params[:0]}
	pc.idle = append(pc.idle, pt)
}

// handleParse creates a prepared statement from a Parse message.
func (pc *pgConn) handleParse(payload []byte) {
	pr := payloadReader{b: payload}
	// The statement keeps its name and text: copy them out of the
	// message buffer.
	name := string(pr.cstr())
	query := string(pr.cstr())
	nOIDs := int(pr.int16())
	if pr.err != nil || nOIDs < 0 || nOIDs > 1<<15 {
		pc.extErr(stateProtocolViolation, "malformed Parse message")
		return
	}
	oids := make([]uint32, nOIDs)
	for i := range oids {
		oids[i] = uint32(pr.int32())
	}
	if pr.err != nil {
		pc.extErr(stateProtocolViolation, "malformed Parse message")
		return
	}

	st := &pgStmt{name: name, sql: query, paramOIDs: oids}
	trimmed := strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(query), ";"))
	switch {
	case trimmed == "":
		st.empty = true
	case isUtilityKeyword(trimmed):
		st.util = true
		if cols, kinds, ok := showShape(trimmed); ok {
			st.utilCols, st.utilKinds = cols, kinds
		}
	default:
		rewritten, argMap, nParams, err := rewritePlaceholders(query)
		if err != nil {
			pc.extErr(stateInvalidParameter, err.Error())
			return
		}
		prep, err := pc.sess.Prepare(rewritten)
		if err != nil {
			pc.extErr(sqlstateFor(err), err.Error())
			return
		}
		st.prep, st.argMap, st.nParams = prep, argMap, nParams
	}
	// Overwriting an existing name is lenient by choice (PostgreSQL
	// raises 42P05); drivers that reuse names always Close first.
	pc.stmts[name] = st
	pc.buf.parseComplete()
}

// isUtilityKeyword reports whether a statement belongs to the front
// door rather than the engine.
func isUtilityKeyword(trimmed string) bool {
	word := trimmed
	if i := strings.IndexAny(word, " \t\r\n"); i >= 0 {
		word = word[:i]
	}
	switch strings.ToUpper(word) {
	case "SET", "RESET", "SHOW":
		return true
	}
	return false
}

// showShape gives the result schema of a SHOW statement so Describe
// can answer before execution; other utilities return no rows.
func showShape(trimmed string) ([]string, []value.Kind, bool) {
	fields := strings.Fields(trimmed)
	if len(fields) < 2 || !strings.EqualFold(fields[0], "SHOW") {
		return nil, nil, false
	}
	name := strings.ToLower(strings.Join(fields[1:], "_"))
	return []string{name}, []value.Kind{value.KindString}, true
}

// handleBind creates a portal from a Bind message.
func (pc *pgConn) handleBind(payload []byte) {
	pr := payloadReader{b: payload}
	portalName := pr.cstr()
	stmtName := pr.cstr()

	// Each count decodes as int16, so a hostile byte pattern >= 0x8000
	// comes out negative; validate every count before looping on it, as
	// handleParse does for nOIDs. The first pass only checks the
	// message's shape and remembers where the parameters start.
	nFmt := int(pr.int16())
	if pr.err != nil || nFmt < 0 {
		pc.extErr(stateProtocolViolation, "malformed Bind message")
		return
	}
	binaryParam := false
	for i := 0; i < nFmt; i++ {
		binaryParam = pr.int16() != 0 || binaryParam
	}
	nParams := int(pr.int16())
	if pr.err != nil || nParams < 0 {
		pc.extErr(stateProtocolViolation, "malformed Bind message")
		return
	}
	paramsAt := pr.pos
	for i := 0; i < nParams; i++ {
		pr.lenBytes()
	}
	nResFmt := int(pr.int16())
	if pr.err != nil || nResFmt < 0 {
		pc.extErr(stateProtocolViolation, "malformed Bind message")
		return
	}
	binaryResult := false
	for i := 0; i < nResFmt; i++ {
		binaryResult = pr.int16() != 0 || binaryResult
	}
	if pr.err != nil {
		pc.extErr(stateProtocolViolation, "malformed Bind message")
		return
	}
	if binaryParam {
		pc.extErr(stateFeatureUnsupported, "binary parameter format is not supported; use text format")
		return
	}
	if binaryResult {
		pc.extErr(stateFeatureUnsupported, "binary result format is not supported; use text format")
		return
	}

	st, ok := pc.stmts[string(stmtName)]
	if !ok {
		pc.extErr(stateInvalidStmtName, fmt.Sprintf("prepared statement %q does not exist", stmtName))
		return
	}
	if nParams != st.nParams {
		pc.extErr(stateProtocolViolation, fmt.Sprintf(
			"bind message supplies %d parameters, but prepared statement %q requires %d",
			nParams, stmtName, st.nParams))
		return
	}

	// Decode $n-order values using their declared OIDs, then lay them
	// out in the engine's source (?) order through argMap. String values
	// are copies; nothing in the portal points into the message buffer.
	pr = payloadReader{b: payload, pos: paramsAt}
	pc.pgVals = pc.pgVals[:0]
	for i := 0; i < nParams; i++ {
		data, null := pr.lenBytes()
		v := value.Null
		if !null {
			var oid uint32
			if i < len(st.paramOIDs) {
				oid = st.paramOIDs[i]
			}
			var err error
			if v, err = valueFromText(oid, data); err != nil {
				pc.extErr(stateInvalidText, fmt.Sprintf("parameter $%d: %v", i+1, err))
				return
			}
		}
		pc.pgVals = append(pc.pgVals, v)
	}
	pc.dropPortal(portalName)
	pt := pc.takePortal()
	pt.stmt = st
	for _, src := range st.argMap {
		pt.params = append(pt.params, pc.pgVals[src])
	}
	pc.portals[string(portalName)] = pt
	pc.buf.bindComplete()
}

// handleDescribe answers a Describe for a statement ('S') or portal
// ('P') from the plan alone, without executing.
func (pc *pgConn) handleDescribe(payload []byte) {
	pr := payloadReader{b: payload}
	kind := pr.byte()
	name := pr.cstr()
	if pr.err != nil {
		pc.extErr(stateProtocolViolation, "malformed Describe message")
		return
	}
	switch kind {
	case 'S':
		st, ok := pc.stmts[string(name)]
		if !ok {
			pc.extErr(stateInvalidStmtName, fmt.Sprintf("prepared statement %q does not exist", name))
			return
		}
		pc.buf.parameterDescription(st.nParams, st.paramOIDs)
		pc.describeResult(st)
	case 'P':
		pt, ok := pc.portals[string(name)]
		if !ok {
			pc.extErr(stateInvalidCursorName, fmt.Sprintf("portal %q does not exist", name))
			return
		}
		pc.describeResult(pt.stmt)
	default:
		pc.extErr(stateProtocolViolation, fmt.Sprintf("invalid Describe kind %q", kind))
	}
}

// describeResult emits RowDescription or NoData for a statement.
func (pc *pgConn) describeResult(st *pgStmt) {
	switch {
	case st.util && len(st.utilCols) > 0:
		pc.buf.rowDescription(st.utilCols, st.utilKinds)
	case st.prep != nil:
		cols, kinds, err := st.prep.Describe()
		if err != nil {
			pc.extErr(sqlstateFor(err), err.Error())
			return
		}
		if len(cols) > 0 {
			pc.buf.rowDescription(cols, kinds)
			return
		}
		pc.buf.noData()
	default:
		pc.buf.noData()
	}
}

// handleExecute runs (or resumes) a portal; false means the connection
// is finished (query timeout).
func (pc *pgConn) handleExecute(payload []byte) bool {
	t0 := time.Now()
	pr := payloadReader{b: payload}
	name := pr.cstr()
	maxRows := int(pr.int32())
	if pr.err != nil || maxRows < 0 {
		pc.extErr(stateProtocolViolation, "malformed Execute message")
		return true
	}
	pt, ok := pc.portals[string(name)]
	if !ok {
		pc.extErr(stateInvalidCursorName, fmt.Sprintf("portal %q does not exist", name))
		return true
	}
	st := pt.stmt
	if st.empty {
		pc.buf.emptyQueryResponse()
		return true
	}
	if st.util {
		res, handled, err := tryUtility(pc.sess, st.sql)
		if err == nil && !handled {
			err = fmt.Errorf("unrecognized utility statement")
		}
		if err != nil {
			pc.extErr(sqlstateFor(err), err.Error())
			return true
		}
		for _, row := range res.rows {
			pc.buf.dataRow(row)
		}
		pc.buf.commandComplete(res.tag, -1)
		pc.hadErr = false
		return true
	}

	// First Execute materializes the result under the query timeout.
	if pt.res == nil {
		var err error
		if !pc.tc.Guard(t0, func() {
			pc.sess.NoteTransport("pg", time.Since(t0))
			pt.res, err = st.prep.Run(pt.params...)
		}) {
			return false
		}
		if err != nil {
			pt.res = nil
			pc.extErr(sqlstateFor(err), err.Error())
			return true
		}
	}
	pc.hadErr = false

	// Execute never sends RowDescription — that is Describe's job.
	res := pt.res
	if pt.done {
		// PostgreSQL answers a completed portal with a zero-row
		// completion and no side-effect output; in particular the audit
		// notice must not repeat.
		pc.buf.commandComplete(commandTag(st.prep.AST(), res, 0))
		return true
	}
	sent := 0
	for pt.pos < len(res.Rows) {
		if maxRows > 0 && sent >= maxRows {
			pc.buf.portalSuspended()
			return true
		}
		pc.buf.dataRow(res.Rows[pt.pos])
		pt.pos++
		sent++
	}
	pt.done = true
	writeAuditNotice(&pc.buf, res)
	pc.buf.commandComplete(commandTag(st.prep.AST(), res, pt.pos))
	return true
}

// handleClose drops a statement or portal. Closing something that does
// not exist is not an error, per the protocol.
func (pc *pgConn) handleClose(payload []byte) {
	pr := payloadReader{b: payload}
	kind := pr.byte()
	name := pr.cstr()
	if pr.err != nil {
		pc.extErr(stateProtocolViolation, "malformed Close message")
		return
	}
	switch kind {
	case 'S':
		delete(pc.stmts, string(name))
	case 'P':
		pc.dropPortal(name)
	default:
		pc.extErr(stateProtocolViolation, fmt.Sprintf("invalid Close kind %q", kind))
		return
	}
	pc.buf.closeComplete()
}

// handleSync ends an extended-protocol batch: error recovery resets,
// portals outside a transaction are destroyed (their lifetime is the
// enclosing transaction; inside one they survive for row-limited
// resumption, which is how JDBC fetchSize works), and ReadyForQuery
// reports the transaction status.
func (pc *pgConn) handleSync() bool {
	pc.skipping = false
	if !pc.sess.InTxn() {
		for name, pt := range pc.portals {
			delete(pc.portals, name)
			pc.retire(pt)
		}
	}
	pc.buf.readyForQuery(pc.statusByte())
	return pc.flushOut()
}
