package pgwire

import (
	"reflect"
	"testing"

	"auditdb/internal/value"
)

func TestRewritePlaceholders(t *testing.T) {
	for _, tc := range []struct {
		in      string
		out     string
		argMap  []int
		nParams int
	}{
		{"SELECT * FROM T", "SELECT * FROM T", nil, 0},
		{"SELECT * FROM T WHERE a = $1", "SELECT * FROM T WHERE a = ?", []int{0}, 1},
		{"WHERE a = $2 OR b = $1", "WHERE a = ? OR b = ?", []int{1, 0}, 2},
		{"WHERE a = $1 OR b = $1", "WHERE a = ? OR b = ?", []int{0, 0}, 1},
		// $n inside string literals, quoted identifiers and comments
		// stays untouched.
		{"SELECT '$1' FROM T WHERE a = $1", "SELECT '$1' FROM T WHERE a = ?", []int{0}, 1},
		{`SELECT "$1" FROM T`, `SELECT "$1" FROM T`, nil, 0},
		{"SELECT 'it''s $1' FROM T", "SELECT 'it''s $1' FROM T", nil, 0},
		{"-- $1\nSELECT $1", "-- $1\nSELECT ?", []int{0}, 1},
		{"/* $1 */ SELECT $2", "/* $1 */ SELECT ?", []int{1}, 2},
		{"SELECT $12", "SELECT ?", []int{11}, 12},
	} {
		out, argMap, nParams, err := rewritePlaceholders(tc.in)
		if err != nil {
			t.Errorf("%q: %v", tc.in, err)
			continue
		}
		if out != tc.out || nParams != tc.nParams || !reflect.DeepEqual(argMap, tc.argMap) {
			t.Errorf("%q → (%q, %v, %d), want (%q, %v, %d)",
				tc.in, out, argMap, nParams, tc.out, tc.argMap, tc.nParams)
		}
	}
}

func TestRewritePlaceholderErrors(t *testing.T) {
	for _, in := range []string{"SELECT $0", "SELECT $99999"} {
		if _, _, _, err := rewritePlaceholders(in); err == nil {
			t.Errorf("%q: want error", in)
		}
	}
}

func TestEncodeTextAndBack(t *testing.T) {
	// One-cell DataRows: 'D', int32 length, int16 1, int32 cell length
	// (-1 for NULL), cell text.
	for _, tc := range []struct {
		v    value.Value
		want string
	}{
		{value.NewBool(true), "D\x00\x00\x00\x0b\x00\x01\x00\x00\x00\x01t"},
		{value.NewBool(false), "D\x00\x00\x00\x0b\x00\x01\x00\x00\x00\x01f"},
		{value.NewInt(-7), "D\x00\x00\x00\x0c\x00\x01\x00\x00\x00\x02-7"},
		{value.NewFloat(2.5), "D\x00\x00\x00\x0d\x00\x01\x00\x00\x00\x032.5"},
		{value.NewString("x"), "D\x00\x00\x00\x0b\x00\x01\x00\x00\x00\x01x"},
		{value.DateFromYMD(2013, 4, 8), "D\x00\x00\x00\x14\x00\x01\x00\x00\x00\x0a2013-04-08"},
		{value.Null, "D\x00\x00\x00\x0a\x00\x01\xff\xff\xff\xff"},
	} {
		var w writer
		w.dataRow(value.Row{tc.v})
		if string(w.out) != tc.want {
			t.Errorf("dataRow(%v) = %q, want %q", tc.v, w.out, tc.want)
		}
	}

	if v, err := valueFromText(oidInt8, []byte(" 42 ")); err != nil || v.I != 42 {
		t.Errorf("int8 decode = %v, %v", v, err)
	}
	if v, err := valueFromText(oidBool, []byte("true")); err != nil || v.I != 1 {
		t.Errorf("bool decode = %v, %v", v, err)
	}
	if _, err := valueFromText(oidInt8, []byte("nope")); err == nil {
		t.Error("bad int decode: want error")
	}
	// Unspecified OID infers int, then float, then string.
	if v, _ := valueFromText(0, []byte("3")); v.Kind != value.KindInt {
		t.Errorf("inferred kind = %v, want int", v.Kind)
	}
	if v, _ := valueFromText(0, []byte("3.5")); v.Kind != value.KindFloat {
		t.Errorf("inferred kind = %v, want float", v.Kind)
	}
	if v, _ := valueFromText(0, []byte("Alice")); v.Kind != value.KindString {
		t.Errorf("inferred kind = %v, want string", v.Kind)
	}
}

func TestSQLStateMapping(t *testing.T) {
	for _, tc := range []struct {
		msg, state string
	}{
		{"parse error at line 1: unexpected token", stateSyntaxError},
		{"unknown table Nope", stateUndefinedTable},
		{"unknown column Foo", stateUndefinedColumn},
		{"table T already exists", stateDuplicateTable},
		{"division by zero", stateDivisionByZero},
		{"no open transaction", stateNoActiveTxn},
		{"something inscrutable", stateInternalError},
	} {
		if got := sqlstateFor(errString(tc.msg)); got != tc.state {
			t.Errorf("%q → %s, want %s", tc.msg, got, tc.state)
		}
	}
}

type errString string

func (e errString) Error() string { return string(e) }
