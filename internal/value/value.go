// Package value defines the runtime value model used throughout the
// engine: typed scalar values, SQL three-valued comparison logic,
// arithmetic with numeric coercion, and key encoding for hash-based
// operators (joins, grouping, audit-ID sets).
package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Kind enumerates the scalar types the engine supports.
type Kind uint8

// The supported value kinds. Date values are stored as whole days since
// the Unix epoch, which keeps date comparison and arithmetic integral.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindFloat
	KindString
	KindDate
)

// String returns the SQL-ish name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindBool:
		return "BOOLEAN"
	case KindInt:
		return "INTEGER"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "VARCHAR"
	case KindDate:
		return "DATE"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ParseKind maps a SQL type name to a Kind. It accepts the common
// aliases used in CREATE TABLE statements.
func ParseKind(name string) (Kind, error) {
	switch strings.ToUpper(name) {
	case "BOOL", "BOOLEAN":
		return KindBool, nil
	case "INT", "INTEGER", "BIGINT", "SMALLINT":
		return KindInt, nil
	case "FLOAT", "REAL", "DOUBLE", "DECIMAL", "NUMERIC":
		return KindFloat, nil
	case "VARCHAR", "CHAR", "TEXT", "STRING":
		return KindString, nil
	case "DATE":
		return KindDate, nil
	default:
		return KindNull, fmt.Errorf("unknown type %q", name)
	}
}

// Value is a scalar runtime value. The active representation depends on
// Kind: I for INT/BOOL/DATE (bool as 0/1, date as days since epoch),
// F for FLOAT, S for STRING.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null is the SQL NULL value.
var Null = Value{Kind: KindNull}

// NewBool returns a BOOLEAN value.
func NewBool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// NewInt returns an INTEGER value.
func NewInt(i int64) Value { return Value{Kind: KindInt, I: i} }

// NewFloat returns a FLOAT value.
func NewFloat(f float64) Value { return Value{Kind: KindFloat, F: f} }

// NewString returns a VARCHAR value.
func NewString(s string) Value { return Value{Kind: KindString, S: s} }

// NewDate returns a DATE value from days since the Unix epoch.
func NewDate(days int64) Value { return Value{Kind: KindDate, I: days} }

// DateFromYMD returns a DATE value for the given calendar date.
func DateFromYMD(year, month, day int) Value {
	t := time.Date(year, time.Month(month), day, 0, 0, 0, 0, time.UTC)
	return NewDate(t.Unix() / 86400)
}

// ParseDate parses a 'YYYY-MM-DD' literal into a DATE value.
func ParseDate(s string) (Value, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return Null, fmt.Errorf("invalid date literal %q: %w", s, err)
	}
	return NewDate(t.Unix() / 86400), nil
}

// IsNull reports whether v is SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean interpretation of v. It must only be called
// on BOOLEAN values.
func (v Value) Bool() bool { return v.Kind == KindBool && v.I != 0 }

// Int returns the integral interpretation of v (INT, BOOL or DATE).
func (v Value) Int() int64 { return v.I }

// Float returns v as a float64, coercing integers.
func (v Value) Float() float64 {
	if v.Kind == KindFloat {
		return v.F
	}
	return float64(v.I)
}

// Str returns the string payload of v.
func (v Value) Str() string { return v.S }

// Time returns the time.Time for a DATE value (midnight UTC).
func (v Value) Time() time.Time { return time.Unix(v.I*86400, 0).UTC() }

// Year returns the calendar year of a DATE value.
func (v Value) Year() int { return v.Time().Year() }

// String renders v for display and logs.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindDate:
		return v.Time().Format("2006-01-02")
	default:
		return fmt.Sprintf("<bad value kind %d>", v.Kind)
	}
}

// AppendText appends what String returns, without building the string.
func (v Value) AppendText(dst []byte) []byte {
	switch v.Kind {
	case KindInt:
		return strconv.AppendInt(dst, v.I, 10)
	case KindFloat:
		return strconv.AppendFloat(dst, v.F, 'g', -1, 64)
	case KindString:
		return append(dst, v.S...)
	case KindDate:
		return v.Time().AppendFormat(dst, "2006-01-02")
	default:
		return append(dst, v.String()...)
	}
}

// SQL renders v as a SQL literal (strings quoted, dates tagged).
func (v Value) SQL() string {
	switch v.Kind {
	case KindString:
		return "'" + strings.ReplaceAll(v.S, "'", "''") + "'"
	case KindDate:
		return "DATE '" + v.String() + "'"
	default:
		return v.String()
	}
}

func isNumeric(k Kind) bool { return k == KindInt || k == KindFloat || k == KindBool }

// Comparable reports whether values of kinds a and b may be compared.
func Comparable(a, b Kind) bool {
	if a == KindNull || b == KindNull {
		return true
	}
	if a == b {
		return true
	}
	return isNumeric(a) && isNumeric(b)
}

// Compare orders a against b, returning -1, 0 or +1. NULLs sort first
// (this total order is used by ORDER BY and index structures; SQL
// comparison predicates handle NULL separately via CompareSQL).
func Compare(a, b Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == KindNull && b.Kind == KindNull:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		if a.Kind == KindFloat || b.Kind == KindFloat {
			af, bf := a.Float(), b.Float()
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		}
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		default:
			return 0
		}
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.S, b.coerceString())
	case KindDate:
		bi := b.coerceDate()
		switch {
		case a.I < bi:
			return -1
		case a.I > bi:
			return 1
		default:
			return 0
		}
	default:
		return 0
	}
}

// coerceString allows comparing DATE to string literals lexically.
func (v Value) coerceString() string {
	if v.Kind == KindDate {
		return v.String()
	}
	return v.S
}

// coerceDate allows comparing a 'YYYY-MM-DD' string against a DATE.
func (v Value) coerceDate() int64 {
	if v.Kind == KindString {
		if d, err := ParseDate(v.S); err == nil {
			return d.I
		}
	}
	return v.I
}

// CompareSQL implements SQL comparison semantics: if either operand is
// NULL the result is unknown (ok=false); otherwise cmp is as Compare.
func CompareSQL(a, b Value) (cmp int, ok bool) {
	if a.Kind == KindNull || b.Kind == KindNull {
		return 0, false
	}
	return Compare(a, b), true
}

// Equal reports strict equality under the total order used by Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// Tri is a three-valued logic truth value.
type Tri uint8

// Three-valued logic constants.
const (
	False Tri = iota
	True
	Unknown
)

// TriOf lifts a Go bool into Tri.
func TriOf(b bool) Tri {
	if b {
		return True
	}
	return False
}

// TriFromValue interprets a value as a 3VL condition: NULL is Unknown,
// BOOLEAN maps naturally, non-zero numerics are True.
func TriFromValue(v Value) Tri {
	switch v.Kind {
	case KindNull:
		return Unknown
	case KindBool, KindInt:
		return TriOf(v.I != 0)
	case KindFloat:
		return TriOf(v.F != 0)
	default:
		return TriOf(v.S != "")
	}
}

// Value converts a Tri back into a SQL value (Unknown becomes NULL).
func (t Tri) Value() Value {
	switch t {
	case True:
		return NewBool(true)
	case False:
		return NewBool(false)
	default:
		return Null
	}
}

// And is three-valued conjunction.
func (t Tri) And(o Tri) Tri {
	if t == False || o == False {
		return False
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return True
}

// Or is three-valued disjunction.
func (t Tri) Or(o Tri) Tri {
	if t == True || o == True {
		return True
	}
	if t == Unknown || o == Unknown {
		return Unknown
	}
	return False
}

// Not is three-valued negation.
func (t Tri) Not() Tri {
	switch t {
	case True:
		return False
	case False:
		return True
	default:
		return Unknown
	}
}

// Arith applies the arithmetic operator op ('+', '-', '*', '/', '%') to
// a and b with numeric coercion. NULL operands yield NULL. Date +/- int
// shifts by days.
func Arith(op byte, a, b Value) (Value, error) {
	if a.IsNull() || b.IsNull() {
		return Null, nil
	}
	if a.Kind == KindDate && b.Kind == KindInt {
		switch op {
		case '+':
			return NewDate(a.I + b.I), nil
		case '-':
			return NewDate(a.I - b.I), nil
		}
	}
	if a.Kind == KindDate && b.Kind == KindDate && op == '-' {
		return NewInt(a.I - b.I), nil
	}
	if !isNumeric(a.Kind) || !isNumeric(b.Kind) {
		return Null, fmt.Errorf("cannot apply %c to %s and %s", op, a.Kind, b.Kind)
	}
	if a.Kind == KindFloat || b.Kind == KindFloat || op == '/' {
		af, bf := a.Float(), b.Float()
		switch op {
		case '+':
			return NewFloat(af + bf), nil
		case '-':
			return NewFloat(af - bf), nil
		case '*':
			return NewFloat(af * bf), nil
		case '/':
			if bf == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewFloat(af / bf), nil
		case '%':
			if bf == 0 {
				return Null, fmt.Errorf("division by zero")
			}
			return NewFloat(math.Mod(af, bf)), nil
		}
	}
	switch op {
	case '+':
		return NewInt(a.I + b.I), nil
	case '-':
		return NewInt(a.I - b.I), nil
	case '*':
		return NewInt(a.I * b.I), nil
	case '%':
		if b.I == 0 {
			return Null, fmt.Errorf("division by zero")
		}
		return NewInt(a.I % b.I), nil
	}
	return Null, fmt.Errorf("unknown arithmetic operator %c", op)
}

// Neg negates a numeric value.
func Neg(v Value) (Value, error) {
	switch v.Kind {
	case KindNull:
		return Null, nil
	case KindInt, KindBool:
		return NewInt(-v.I), nil
	case KindFloat:
		return NewFloat(-v.F), nil
	default:
		return Null, fmt.Errorf("cannot negate %s", v.Kind)
	}
}

// Coerce converts v to kind k where a lossless or conventional
// conversion exists (int<->float, string->date, bool->int).
func Coerce(v Value, k Kind) (Value, error) {
	if v.Kind == k || v.Kind == KindNull {
		return v, nil
	}
	switch k {
	case KindInt:
		switch v.Kind {
		case KindFloat:
			return NewInt(int64(v.F)), nil
		case KindBool:
			return NewInt(v.I), nil
		case KindString:
			i, err := strconv.ParseInt(strings.TrimSpace(v.S), 10, 64)
			if err != nil {
				return Null, fmt.Errorf("cannot convert %q to INTEGER", v.S)
			}
			return NewInt(i), nil
		}
	case KindFloat:
		switch v.Kind {
		case KindInt, KindBool:
			return NewFloat(float64(v.I)), nil
		case KindString:
			f, err := strconv.ParseFloat(strings.TrimSpace(v.S), 64)
			if err != nil {
				return Null, fmt.Errorf("cannot convert %q to FLOAT", v.S)
			}
			return NewFloat(f), nil
		}
	case KindDate:
		if v.Kind == KindString {
			return ParseDate(v.S)
		}
		if v.Kind == KindInt {
			return NewDate(v.I), nil
		}
	case KindString:
		return NewString(v.String()), nil
	case KindBool:
		if isNumeric(v.Kind) {
			return NewBool(v.Float() != 0), nil
		}
	}
	return Null, fmt.Errorf("cannot convert %s to %s", v.Kind, k)
}

// Like implements the SQL LIKE operator with % and _ wildcards.
func Like(s, pattern string) bool {
	return likeMatch(s, pattern)
}

func likeMatch(s, p string) bool {
	// Iterative matcher with backtracking over the last '%' seen.
	si, pi := 0, 0
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
