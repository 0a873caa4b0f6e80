// Package wire defines auditdbd's line protocol: one JSON object per
// newline-terminated line in each direction. A request names an op
// ("exec", "query", "prepare", "run", "set", "stats", "ping", "quit")
// and its arguments; the response carries rows, DML counts, per-audit-
// expression access counts, or an error. Scalars travel as JSON
// natives (null, bool, number, string; dates as "YYYY-MM-DD" strings),
// so any language with a JSON library can speak the protocol.
package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf16"
	"unicode/utf8"

	"auditdb/internal/value"
)

// Request ops.
const (
	OpExec      = "exec"       // SQL: a statement or semicolon-separated script
	OpQuery     = "query"      // SQL: a single SELECT
	OpPrepare   = "prepare"    // SQL with ? placeholders -> Stmt handle
	OpRun       = "run"        // Stmt + Params: execute a prepared statement
	OpCloseStmt = "close_stmt" // Stmt: drop a prepared statement
	OpSet       = "set"        // Key (user, or a Key* session setting), Value
	OpStats     = "stats"      // engine + server counters
	OpPing      = "ping"
	OpQuit      = "quit"
	// Durability ops (served only when the daemon runs with -data-dir).
	OpVerifyAudit = "verify_audit" // check the audit trail's hash chain
	OpCheckpoint  = "checkpoint"   // snapshot + truncate the data WAL
)

// Set keys. The engine's settings table also declares placement and
// triage, as read-only rows: a "set" of either is refused (placement is
// fixed by the server, triage is auditdbd -triage-workers), so no key
// is declared for them here.
const (
	KeyUser     = "user"
	KeyAuditAll = "audit_all"
	// KeyWorkers sets the session's parallel-execution worker budget:
	// a positive integer, 1 forcing serial, 0 resetting to the server
	// default.
	KeyWorkers = "workers"
	// KeyTrace toggles forced full trace capture for every statement
	// this session runs ("on"/"off"); retained traces are read back from
	// sys.traces and sys.spans or the /traces endpoint.
	KeyTrace = "trace"
	// KeySkipping toggles chunk skipping (zone maps + sensitive-ID
	// sketches) for this session's scans ("on"/"off"). Skipping never
	// changes results or the audit trail; off is for measurement and
	// as an escape hatch.
	KeySkipping = "skipping"
)

// Request is one client line.
type Request struct {
	Op     string `json:"op"`
	SQL    string `json:"sql,omitempty"`
	Key    string `json:"key,omitempty"`
	Value  string `json:"value,omitempty"`
	Stmt   int    `json:"stmt,omitempty"`
	Params []any  `json:"params,omitempty"`
}

// Response is one server line.
type Response struct {
	OK           bool     `json:"ok"`
	Error        string   `json:"error,omitempty"`
	Columns      []string `json:"columns,omitempty"`
	Rows         [][]any  `json:"rows,omitempty"`
	RowsAffected int      `json:"rows_affected,omitempty"`
	// QID is the query ID the engine's tracer assigned to the
	// statement; SELECT trace FROM sys.spans WHERE qid = <qid> reads
	// its span tree when the trace was retained.
	QID uint64 `json:"qid,omitempty"`
	// Audited maps audit-expression name to the number of sensitive
	// partition keys the statement accessed.
	Audited   map[string]int   `json:"audited,omitempty"`
	Stats     map[string]int64 `json:"stats,omitempty"`
	Stmt      int              `json:"stmt,omitempty"`
	NumParams int              `json:"num_params,omitempty"`
	Verify    *VerifyResult    `json:"verify,omitempty"`
}

// VerifyResult reports an audit-trail integrity check ("verify_audit").
// OK stays true even for an invalid chain — the check itself succeeded;
// Valid is the verdict.
type VerifyResult struct {
	Valid   bool   `json:"valid"`
	Records uint64 `json:"records"`
	Head    string `json:"head"`
	Reason  string `json:"reason,omitempty"`
}

// AppendValue appends an engine scalar in its JSON representation —
// null, true/false, number, string; dates as "YYYY-MM-DD" strings —
// byte for byte what encoding/json emits for the same value held in an
// any. ok is false for a float JSON cannot carry (NaN, ±Inf), with dst
// returned unchanged.
func AppendValue(dst []byte, v value.Value) (out []byte, ok bool) {
	switch v.Kind {
	case value.KindNull:
		return append(dst, "null"...), true
	case value.KindBool:
		return strconv.AppendBool(dst, v.Bool()), true
	case value.KindInt:
		return strconv.AppendInt(dst, v.Int(), 10), true
	case value.KindFloat:
		return appendFloat(dst, v.Float())
	case value.KindString:
		return AppendString(dst, v.Str()), true
	case value.KindDate:
		dst = append(dst, '"')
		dst = v.Time().AppendFormat(dst, "2006-01-02")
		return append(dst, '"'), true
	default: // anything else renders as its SQL text form
		return AppendString(dst, v.String()), true
	}
}

// appendFloat follows encoding/json: shortest round-trip digits, ES6
// exponent cutoffs, exponents not padded to two digits.
func appendFloat(dst []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1] // e-09 -> e-9
		dst = dst[:n-1]
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// AppendString appends s as a JSON string literal with encoding/json's
// default escaping: control bytes, quote and backslash; <, > and & as
// \u00XX; U+2028/U+2029; invalid UTF-8 as \ufffd.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			start = i + size
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			start = i + size
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// ParamToValue converts a decoded JSON parameter (the decoder must use
// json.Number) to an engine scalar.
func ParamToValue(p any) (value.Value, error) {
	switch x := p.(type) {
	case nil:
		return value.Null, nil
	case bool:
		return value.NewBool(x), nil
	case string:
		return value.NewString(x), nil
	case json.Number:
		if i, err := x.Int64(); err == nil {
			return value.NewInt(i), nil
		}
		f, err := x.Float64()
		if err != nil {
			return value.Null, fmt.Errorf("bad numeric parameter %q", x.String())
		}
		return value.NewFloat(f), nil
	case float64: // decoder without UseNumber
		return value.NewFloat(x), nil
	default:
		return value.Null, fmt.Errorf("unsupported parameter type %T", p)
	}
}

// DecodeRequest decodes one request line into req (zeroed first). The
// statement ops' lines — an object of exactly "op" and "sql" string
// members, what every client sends for "exec" and "query" — are decoded
// in place; any other shape, and any line the fast path has the least
// doubt about, goes through encoding/json, so the result and the error
// are encoding/json's either way.
func DecodeRequest(line []byte, req *Request) error {
	*req = Request{}
	if op, sql, ok := decodeOpSQL(line); ok {
		req.Op, req.SQL = op, sql
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.UseNumber()
	return dec.Decode(req)
}

// decodeOpSQL is DecodeRequest's fast path; ok is false for any line
// that is not of that shape.
func decodeOpSQL(line []byte) (op, sql string, ok bool) {
	p := skipSpace(line, 0)
	if p >= len(line) || line[p] != '{' {
		return "", "", false
	}
	p = skipSpace(line, p+1)
	var seenOp, seenSQL bool
	for {
		var key, val []byte
		var escaped bool
		if key, escaped, p, ok = scanString(line, p); !ok || escaped {
			return "", "", false
		}
		p = skipSpace(line, p)
		if p >= len(line) || line[p] != ':' {
			return "", "", false
		}
		p = skipSpace(line, p+1)
		if val, escaped, p, ok = scanString(line, p); !ok {
			return "", "", false
		}
		switch {
		case string(key) == "op" && !seenOp && !escaped:
			seenOp = true
			switch string(val) {
			case OpQuery:
				op = OpQuery
			case OpExec:
				op = OpExec
			default:
				return "", "", false
			}
		case string(key) == "sql" && !seenSQL:
			seenSQL = true
			if !escaped {
				sql = string(val)
			} else if sql, ok = unescape(val); !ok {
				return "", "", false
			}
		default:
			return "", "", false
		}
		p = skipSpace(line, p)
		if p >= len(line) {
			return "", "", false
		}
		if line[p] == '}' {
			// encoding/json's Decoder stops at the end of the value;
			// whatever follows on the line is not its business, but
			// keep the fast path to lines that end there.
			return op, sql, seenOp && skipSpace(line, p+1) == len(line)
		}
		if line[p] != ',' {
			return "", "", false
		}
		p = skipSpace(line, p+1)
	}
}

func skipSpace(b []byte, p int) int {
	for p < len(b) && (b[p] == ' ' || b[p] == '\t' || b[p] == '\r' || b[p] == '\n') {
		p++
	}
	return p
}

// scanString scans the JSON string literal starting at b[p] and returns
// its raw contents (between the quotes), whether it contains escapes,
// and the position after the closing quote. It accepts only what needs
// no judgement: no control bytes and valid UTF-8.
func scanString(b []byte, p int) (raw []byte, escaped bool, next int, ok bool) {
	if p >= len(b) || b[p] != '"' {
		return nil, false, p, false
	}
	start := p + 1
	ascii := true
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			raw = b[start:i]
			return raw, escaped, i + 1, ascii || utf8.Valid(raw)
		case c == '\\':
			escaped = true
			i++ // the escaped byte cannot close the string
		case c < ' ':
			return nil, false, p, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, false, p, false
}

// unescape resolves the escapes of a raw JSON string body. Surrogate
// \u escapes and anything malformed are refused (the caller falls back
// to encoding/json, which knows what to do with them).
func unescape(raw []byte) (string, bool) {
	out := make([]byte, 0, len(raw))
	for i := 0; i < len(raw); i++ {
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(raw) {
			return "", false
		}
		switch raw[i] {
		case '"', '\\', '/':
			out = append(out, raw[i])
		case 'b':
			out = append(out, '\b')
		case 'f':
			out = append(out, '\f')
		case 'n':
			out = append(out, '\n')
		case 'r':
			out = append(out, '\r')
		case 't':
			out = append(out, '\t')
		case 'u':
			if i+4 >= len(raw) {
				return "", false
			}
			var r rune
			for _, h := range raw[i+1 : i+5] {
				switch {
				case h >= '0' && h <= '9':
					r = r<<4 | rune(h-'0')
				case h >= 'a' && h <= 'f':
					r = r<<4 | rune(h-'a'+10)
				case h >= 'A' && h <= 'F':
					r = r<<4 | rune(h-'A'+10)
				default:
					return "", false
				}
			}
			if utf16.IsSurrogate(r) {
				return "", false
			}
			out = utf8.AppendRune(out, r)
			i += 4
		default:
			return "", false
		}
	}
	return string(out), true
}
