package pgwire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"

	"auditdb/internal/value"
)

// PostgreSQL type OIDs for the engine's value kinds (pg_type.oid).
const (
	oidBool    = 16
	oidInt8    = 20
	oidInt2    = 21
	oidInt4    = 23
	oidText    = 25
	oidOID     = 26
	oidFloat4  = 700
	oidFloat8  = 701
	oidVarchar = 1043
	oidDate    = 1082
	oidNumeric = 1700
)

// kindOID maps an engine value kind to the OID reported in
// RowDescription. Unknown/NULL columns report text, the safest choice
// for text-format decoding.
func kindOID(k value.Kind) uint32 {
	switch k {
	case value.KindBool:
		return oidBool
	case value.KindInt:
		return oidInt8
	case value.KindFloat:
		return oidFloat8
	case value.KindDate:
		return oidDate
	default:
		return oidText
	}
}

// oidSize is RowDescription's type length: fixed sizes for fixed
// types, -1 (variable) otherwise.
func oidSize(oid uint32) int16 {
	switch oid {
	case oidBool:
		return 1
	case oidInt2:
		return 2
	case oidInt4, oidDate, oidFloat4:
		return 4
	case oidInt8, oidFloat8:
		return 8
	default:
		return -1
	}
}

// valueFromText converts a text-format parameter to an engine value
// using the declared parameter OID; OID 0 (unspecified) infers
// integer, then float, falling back to string — the engine's
// comparison and coercion rules handle strings against DATE columns.
// b is the message buffer's bytes: a string value is a copy of them,
// everything else parses them in place.
func valueFromText(oid uint32, b []byte) (value.Value, error) {
	switch oid {
	case oidBool:
		switch strings.ToLower(string(bytes.TrimSpace(b))) {
		case "t", "true", "on", "yes", "y", "1":
			return value.NewBool(true), nil
		case "f", "false", "off", "no", "n", "0":
			return value.NewBool(false), nil
		}
		return value.Null, fmt.Errorf("invalid input syntax for type boolean: %q", b)
	case oidInt2, oidInt4, oidInt8, oidOID:
		i, err := strconv.ParseInt(string(bytes.TrimSpace(b)), 10, 64)
		if err != nil {
			return value.Null, fmt.Errorf("invalid input syntax for type integer: %q", b)
		}
		return value.NewInt(i), nil
	case oidFloat4, oidFloat8, oidNumeric:
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(b)), 64)
		if err != nil {
			return value.Null, fmt.Errorf("invalid input syntax for type numeric: %q", b)
		}
		return value.NewFloat(f), nil
	case oidDate:
		return value.ParseDate(string(bytes.TrimSpace(b)))
	case 0:
		if i, err := strconv.ParseInt(string(b), 10, 64); err == nil {
			return value.NewInt(i), nil
		}
		if f, err := strconv.ParseFloat(string(b), 64); err == nil {
			return value.NewFloat(f), nil
		}
		return value.NewString(string(b)), nil
	case oidText, oidVarchar:
		return value.NewString(string(b)), nil
	default:
		return value.Null, fmt.Errorf("unsupported parameter type oid %d", oid)
	}
}

// writer accumulates framed backend messages. Protocol handlers build
// responses here; the connection decides when the bytes hit the
// socket (at Sync/ReadyForQuery, Flush, or a fatal error). Each message
// is appended in place — type byte, length placeholder, body — and its
// length patched once the body is complete.
type writer struct {
	out []byte
}

// begin opens a message of the given type and returns where its
// self-inclusive length goes; end patches it.
func (w *writer) begin(typ byte) (at int) {
	w.out = append(w.out, typ, 0, 0, 0, 0)
	return len(w.out) - 4
}

func (w *writer) end(at int) {
	binary.BigEndian.PutUint32(w.out[at:], uint32(len(w.out)-at))
}

func (w *writer) byte(v byte)   { w.out = append(w.out, v) }
func (w *writer) int16(v int16) { w.out = binary.BigEndian.AppendUint16(w.out, uint16(v)) }
func (w *writer) int32(v int32) { w.out = binary.BigEndian.AppendUint32(w.out, uint32(v)) }

// cstr appends a NUL-terminated string.
func (w *writer) cstr(s string) {
	w.out = append(w.out, s...)
	w.out = append(w.out, 0)
}

// empty appends a message with no body.
func (w *writer) empty(typ byte) { w.out = append(w.out, typ, 0, 0, 0, 4) }

func (w *writer) authenticationOK() {
	at := w.begin(msgAuth)
	w.int32(0)
	w.end(at)
}

func (w *writer) parameterStatus(k, v string) {
	at := w.begin(msgParameterStatus)
	w.cstr(k)
	w.cstr(v)
	w.end(at)
}

func (w *writer) backendKeyData(pid, secret int32) {
	at := w.begin(msgBackendKeyData)
	w.int32(pid)
	w.int32(secret)
	w.end(at)
}

func (w *writer) readyForQuery(status byte) {
	w.out = append(w.out, msgReadyForQuery, 0, 0, 0, 5, status)
}

// rowDescription emits column metadata. kinds may be nil (all columns
// report text).
func (w *writer) rowDescription(cols []string, kinds []value.Kind) {
	at := w.begin(msgRowDescription)
	w.int16(int16(len(cols)))
	for i, name := range cols {
		oid := uint32(oidText)
		if i < len(kinds) {
			oid = kindOID(kinds[i])
		}
		w.cstr(name)
		w.int32(0)            // table OID: not a catalog table
		w.int16(0)            // attribute number
		w.int32(int32(oid))   // type OID
		w.int16(oidSize(oid)) // type size
		w.int32(-1)           // type modifier
		w.int16(0)            // format: text
	}
	w.end(at)
}

// dataRow emits one row in text format: SQL NULL is length -1,
// booleans are t/f, and integers, floats, strings and dates match
// PostgreSQL's text format in their engine rendering (dates:
// YYYY-MM-DD).
func (w *writer) dataRow(row value.Row) {
	at := w.begin(msgDataRow)
	w.int16(int16(len(row)))
	for _, v := range row {
		switch v.Kind {
		case value.KindNull:
			w.int32(-1)
		case value.KindBool:
			w.int32(1)
			if v.I != 0 {
				w.byte('t')
			} else {
				w.byte('f')
			}
		default:
			w.int32(0) // cell length, patched once the text is in
			cell := len(w.out)
			w.out = v.AppendText(w.out)
			binary.BigEndian.PutUint32(w.out[cell-4:], uint32(len(w.out)-cell))
		}
	}
	w.end(at)
}

// commandComplete emits a statement's completion tag: the tag word
// and, when n >= 0, the row count ("SELECT 3", "INSERT 0 1").
func (w *writer) commandComplete(tag string, n int) {
	at := w.begin(msgCommandComplete)
	w.out = append(w.out, tag...)
	if n >= 0 {
		w.out = append(w.out, ' ')
		w.out = strconv.AppendInt(w.out, int64(n), 10)
	}
	w.out = append(w.out, 0)
	w.end(at)
}

func (w *writer) emptyQueryResponse() { w.empty(msgEmptyQuery) }
func (w *writer) parseComplete()      { w.empty(msgParseComplete) }
func (w *writer) bindComplete()       { w.empty(msgBindComplete) }
func (w *writer) closeComplete()      { w.empty(msgCloseComplete) }
func (w *writer) noData()             { w.empty(msgNoData) }
func (w *writer) portalSuspended()    { w.empty(msgPortalSuspended) }

// parameterDescription reports a statement's n parameter types: the
// OIDs declared at Parse, text for the rest.
func (w *writer) parameterDescription(n int, declared []uint32) {
	at := w.begin(msgParamDescription)
	w.int16(int16(n))
	for i := 0; i < n; i++ {
		oid := uint32(oidText)
		if i < len(declared) && declared[i] != 0 {
			oid = declared[i]
		}
		w.int32(int32(oid))
	}
	w.end(at)
}

// beginFields opens an ErrorResponse or NoticeResponse up to the start
// of its message text; endFields closes it.
func (w *writer) beginFields(typ byte, severity, code string) (at int) {
	at = w.begin(typ)
	w.byte('S')
	w.cstr(severity)
	w.byte('V')
	w.cstr(severity)
	w.byte('C')
	w.cstr(code)
	w.byte('M')
	return at
}

func (w *writer) endFields(at int) {
	w.out = append(w.out, 0, 0) // end of message text, end of fields
	w.end(at)
}

func (w *writer) errorResponse(code, message string) { w.failure("ERROR", code, message) }
func (w *writer) fatalResponse(code, message string) { w.failure("FATAL", code, message) }

func (w *writer) failure(severity, code, message string) {
	at := w.beginFields(msgErrorResponse, severity, code)
	w.out = append(w.out, message...)
	w.endFields(at)
}
