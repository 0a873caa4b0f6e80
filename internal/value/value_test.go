package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindNull:   "NULL",
		KindBool:   "BOOLEAN",
		KindInt:    "INTEGER",
		KindFloat:  "FLOAT",
		KindString: "VARCHAR",
		KindDate:   "DATE",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for name, want := range map[string]Kind{
		"int": KindInt, "INTEGER": KindInt, "bigint": KindInt,
		"varchar": KindString, "TEXT": KindString,
		"float": KindFloat, "DECIMAL": KindFloat,
		"date": KindDate, "BOOLEAN": KindBool,
	} {
		got, err := ParseKind(name)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseKind("blob"); err == nil {
		t.Error("ParseKind(blob) should fail")
	}
}

func TestCompareNumeric(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{NewInt(1), NewInt(2), -1},
		{NewInt(2), NewInt(2), 0},
		{NewInt(3), NewInt(2), 1},
		{NewInt(1), NewFloat(1.5), -1},
		{NewFloat(2.0), NewInt(2), 0},
		{NewBool(true), NewInt(1), 0},
		{NewString("a"), NewString("b"), -1},
		{Null, NewInt(0), -1},
		{NewInt(0), Null, 1},
		{Null, Null, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareDateString(t *testing.T) {
	d, err := ParseDate("1995-03-15")
	if err != nil {
		t.Fatal(err)
	}
	if got := Compare(d, NewString("1995-03-15")); got != 0 {
		t.Errorf("date vs equal string = %d, want 0", got)
	}
	if got := Compare(d, NewString("1996-01-01")); got >= 0 {
		t.Errorf("date vs later string = %d, want < 0", got)
	}
	if got := Compare(NewString("1995-03-15"), d); got != 0 {
		t.Errorf("string vs equal date = %d, want 0", got)
	}
}

func TestCompareSQLNull(t *testing.T) {
	if _, ok := CompareSQL(Null, NewInt(1)); ok {
		t.Error("NULL comparison must be unknown")
	}
	if cmp, ok := CompareSQL(NewInt(1), NewInt(1)); !ok || cmp != 0 {
		t.Errorf("CompareSQL(1,1) = %d,%v", cmp, ok)
	}
}

func TestTriLogic(t *testing.T) {
	cases := []struct {
		a, b    Tri
		and, or Tri
	}{
		{True, True, True, True},
		{True, False, False, True},
		{False, False, False, False},
		{True, Unknown, Unknown, True},
		{False, Unknown, False, Unknown},
		{Unknown, Unknown, Unknown, Unknown},
	}
	for _, c := range cases {
		if got := c.a.And(c.b); got != c.and {
			t.Errorf("%v AND %v = %v, want %v", c.a, c.b, got, c.and)
		}
		if got := c.b.And(c.a); got != c.and {
			t.Errorf("AND not commutative for %v,%v", c.a, c.b)
		}
		if got := c.a.Or(c.b); got != c.or {
			t.Errorf("%v OR %v = %v, want %v", c.a, c.b, got, c.or)
		}
	}
	if True.Not() != False || False.Not() != True || Unknown.Not() != Unknown {
		t.Error("Not truth table wrong")
	}
}

func TestTriFromValue(t *testing.T) {
	if TriFromValue(Null) != Unknown {
		t.Error("NULL should be Unknown")
	}
	if TriFromValue(NewBool(true)) != True || TriFromValue(NewBool(false)) != False {
		t.Error("bool mapping wrong")
	}
}

func TestArith(t *testing.T) {
	cases := []struct {
		op   byte
		a, b Value
		want Value
	}{
		{'+', NewInt(2), NewInt(3), NewInt(5)},
		{'-', NewInt(2), NewInt(3), NewInt(-1)},
		{'*', NewInt(2), NewInt(3), NewInt(6)},
		{'*', NewFloat(0.5), NewInt(4), NewFloat(2)},
		{'/', NewInt(6), NewInt(4), NewFloat(1.5)},
		{'%', NewInt(7), NewInt(4), NewInt(3)},
		{'+', NewFloat(1.5), NewFloat(2.5), NewFloat(4)},
	}
	for _, c := range cases {
		got, err := Arith(c.op, c.a, c.b)
		if err != nil {
			t.Fatalf("Arith(%c, %v, %v): %v", c.op, c.a, c.b, err)
		}
		if Compare(got, c.want) != 0 {
			t.Errorf("Arith(%c, %v, %v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestArithNullPropagation(t *testing.T) {
	for _, op := range []byte{'+', '-', '*', '/', '%'} {
		got, err := Arith(op, Null, NewInt(1))
		if err != nil || !got.IsNull() {
			t.Errorf("NULL %c 1 = %v, %v; want NULL", op, got, err)
		}
	}
}

func TestArithDivZero(t *testing.T) {
	if _, err := Arith('/', NewInt(1), NewInt(0)); err == nil {
		t.Error("integer division by zero should error")
	}
	if _, err := Arith('%', NewInt(1), NewInt(0)); err == nil {
		t.Error("modulo by zero should error")
	}
}

func TestDateArith(t *testing.T) {
	d := DateFromYMD(1995, 1, 1)
	d2, err := Arith('+', d, NewInt(31))
	if err != nil {
		t.Fatal(err)
	}
	if d2.String() != "1995-02-01" {
		t.Errorf("1995-01-01 + 31 = %s", d2)
	}
	diff, err := Arith('-', d2, d)
	if err != nil || diff.Int() != 31 {
		t.Errorf("date diff = %v, %v", diff, err)
	}
}

func TestDateYear(t *testing.T) {
	d := DateFromYMD(1997, 6, 15)
	if d.Year() != 1997 {
		t.Errorf("Year() = %d", d.Year())
	}
	if d.String() != "1997-06-15" {
		t.Errorf("String() = %s", d)
	}
}

func TestParseDateInvalid(t *testing.T) {
	if _, err := ParseDate("not-a-date"); err == nil {
		t.Error("expected parse error")
	}
}

func TestCoerce(t *testing.T) {
	cases := []struct {
		v    Value
		k    Kind
		want Value
	}{
		{NewInt(3), KindFloat, NewFloat(3)},
		{NewFloat(3.7), KindInt, NewInt(3)},
		{NewString("42"), KindInt, NewInt(42)},
		{NewString("1995-01-01"), KindDate, DateFromYMD(1995, 1, 1)},
		{NewInt(5), KindString, NewString("5")},
		{Null, KindInt, Null},
	}
	for _, c := range cases {
		got, err := Coerce(c.v, c.k)
		if err != nil {
			t.Fatalf("Coerce(%v, %v): %v", c.v, c.k, err)
		}
		if got.Kind != c.want.Kind || Compare(got, c.want) != 0 {
			t.Errorf("Coerce(%v, %v) = %v, want %v", c.v, c.k, got, c.want)
		}
	}
	if _, err := Coerce(NewString("xyz"), KindInt); err == nil {
		t.Error("coercing non-numeric string should fail")
	}
}

func TestLike(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%lo", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h_llx", false},
		{"hello", "%", true},
		{"", "%", true},
		{"", "_", false},
		{"abc", "a%b%c", true},
		{"special request", "%special%requests%", false},
		{"special requests", "%special%requests%", true},
	}
	for _, c := range cases {
		if got := Like(c.s, c.p); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.s, c.p, got, c.want)
		}
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(NewInt(5)); err != nil || v.Int() != -5 {
		t.Errorf("Neg(5) = %v, %v", v, err)
	}
	if v, err := Neg(NewFloat(2.5)); err != nil || v.Float() != -2.5 {
		t.Errorf("Neg(2.5) = %v, %v", v, err)
	}
	if v, err := Neg(Null); err != nil || !v.IsNull() {
		t.Errorf("Neg(NULL) = %v, %v", v, err)
	}
	if _, err := Neg(NewString("x")); err == nil {
		t.Error("Neg(string) should fail")
	}
}

func TestEncodeKeyEquality(t *testing.T) {
	// Values equal under Compare must encode identically.
	pairs := [][2]Value{
		{NewInt(3), NewFloat(3.0)},
		{NewBool(true), NewInt(1)},
		{NewInt(0), NewFloat(0)},
	}
	for _, p := range pairs {
		if KeyOf(p[0]) != KeyOf(p[1]) {
			t.Errorf("equal values %v and %v encode differently", p[0], p[1])
		}
	}
	// And distinct values must encode differently.
	distinct := []Value{
		Null, NewInt(0), NewInt(1), NewFloat(0.5), NewString(""),
		NewString("a"), NewString("ab"), DateFromYMD(2000, 1, 1),
	}
	seen := map[string]Value{}
	for _, v := range distinct {
		k := KeyOf(v)
		if prev, dup := seen[k]; dup && Compare(prev, v) != 0 {
			t.Errorf("values %v and %v collide on key", prev, v)
		}
		seen[k] = v
	}
}

func TestEncodeKeyQuick(t *testing.T) {
	// Property: for random int pairs, key equality iff value equality.
	f := func(a, b int64) bool {
		ka, kb := KeyOf(NewInt(a)), KeyOf(NewInt(b))
		return (ka == kb) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: int and equal-valued float always share a key.
	g := func(a int32) bool {
		return KeyOf(NewInt(int64(a))) == KeyOf(NewFloat(float64(a)))
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeQuick(t *testing.T) {
	// Property: every string matches itself and "%".
	f := func(s string) bool {
		return Like(s, "%") && Like(s, s+"%") == true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRowCloneConcat(t *testing.T) {
	r := Row{NewInt(1), NewString("x")}
	c := r.Clone()
	c[0] = NewInt(2)
	if r[0].Int() != 1 {
		t.Error("Clone aliased backing array")
	}
	cat := r.Concat(Row{NewBool(true)})
	if len(cat) != 3 || !cat[2].Bool() {
		t.Errorf("Concat = %v", cat)
	}
}

func TestHashRowOrderSensitive(t *testing.T) {
	a := Row{NewInt(1), NewInt(2)}
	b := Row{NewInt(2), NewInt(1)}
	if HashRow(a) == HashRow(b) {
		t.Error("HashRow should be order sensitive")
	}
	if HashRow(a) != HashRow(a.Clone()) {
		t.Error("HashRow must be deterministic")
	}
}

func TestEncodeRowKey(t *testing.T) {
	r := Row{NewInt(1), NewString("a"), NewInt(2)}
	k1 := EncodeRowKey(r, []int{0, 2})
	k2 := EncodeRowKey(Row{NewInt(1), NewString("zzz"), NewInt(2)}, []int{0, 2})
	if k1 != k2 {
		t.Error("projection keys should ignore unselected columns")
	}
	k3 := EncodeRowKey(Row{NewInt(1), NewString("a"), NewInt(3)}, []int{0, 2})
	if k1 == k3 {
		t.Error("different values must give different keys")
	}
}

func TestValueSQL(t *testing.T) {
	if got := NewString("O'Brien").SQL(); got != "'O''Brien'" {
		t.Errorf("SQL() = %s", got)
	}
	if got := DateFromYMD(1995, 1, 1).SQL(); got != "DATE '1995-01-01'" {
		t.Errorf("SQL() = %s", got)
	}
	if got := NewInt(7).SQL(); got != "7" {
		t.Errorf("SQL() = %s", got)
	}
}

func TestComparable(t *testing.T) {
	if !Comparable(KindInt, KindFloat) || !Comparable(KindNull, KindString) {
		t.Error("expected comparable")
	}
	if Comparable(KindInt, KindString) {
		t.Error("int/string should not be comparable")
	}
}

// TestHashRowSumsDoNotCancel: the offline auditor digests a result as
// the sum of its rows' hashes. Deleting a tuple that feeds two groups
// turns (g1, c1), (g2, c2) into (g1, c1-1), (g2, c2-1); the two sums
// must differ, or the deletion test misses the access. Raw FNV-1a
// fails this for about a quarter of the pairs below.
func TestHashRowSumsDoNotCancel(t *testing.T) {
	groups := []string{"cancer", "flu", "diabetes", "48109", "98052", "10001"}
	for i, g1 := range groups {
		for _, g2 := range groups[i+1:] {
			for c1 := int64(1); c1 <= 8; c1++ {
				for c2 := int64(1); c2 <= 8; c2++ {
					before := HashRow(Row{NewString(g1), NewInt(c1)}) + HashRow(Row{NewString(g2), NewInt(c2)})
					after := HashRow(Row{NewString(g1), NewInt(c1 - 1)}) + HashRow(Row{NewString(g2), NewInt(c2 - 1)})
					if before == after {
						t.Fatalf("(%s,%d)+(%s,%d) and the same with both counts one lower digest alike", g1, c1, g2, c2)
					}
				}
			}
		}
	}
}

func TestAppendTextMatchesString(t *testing.T) {
	for _, v := range []Value{
		Null, NewBool(true), NewBool(false), NewInt(0), NewInt(-42), NewInt(math.MinInt64),
		NewFloat(0), NewFloat(-2.5), NewFloat(1e21), NewFloat(1e-7), NewFloat(math.Inf(1)), NewFloat(math.NaN()),
		NewString(""), NewString("héllo\x00"), DateFromYMD(2013, 4, 8), NewDate(-1), {Kind: 99},
	} {
		if got := string(v.AppendText([]byte("x"))); got != "x"+v.String() {
			t.Errorf("AppendText(%#v) = %q, want %q", v, got, "x"+v.String())
		}
	}
}
