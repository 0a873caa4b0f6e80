package lexer

import (
	"testing"

	"auditdb/internal/value"
)

func normOf(t *testing.T, sql string) *Norm {
	t.Helper()
	n := &Norm{}
	if !Normalize(sql, n) {
		t.Fatalf("Normalize(%q) = false, want true", sql)
	}
	return n
}

func TestNormalizeLiftsWhereLiterals(t *testing.T) {
	n := normOf(t, "select name, ssn from patients where id = 42 and state = 'CA'")
	want := "SELECT name , ssn FROM patients WHERE id = ? AND state = ?"
	if got := string(n.Canonical); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	if len(n.Vals) != 2 || n.NUser != 0 {
		t.Fatalf("slots = %d user = %d, want 2/0", len(n.Vals), n.NUser)
	}
	if n.Vals[0].Int() != 42 || n.Vals[1].Str() != "CA" {
		t.Fatalf("lifted values wrong: %v", n.Vals)
	}
}

func TestNormalizeSharedFingerprint(t *testing.T) {
	for _, c := range []struct{ a, b, want string }{
		{"SELECT name FROM patients WHERE id = 7", "select name from patients where id = 9;",
			"SELECT name FROM patients WHERE id = ?"},
		{"SELECT trace FROM sys.spans WHERE qid = 7", "select trace from sys . spans where qid = 9",
			"SELECT trace FROM sys . spans WHERE qid = ?"},
	} {
		a := string(normOf(t, c.a).Canonical)
		b := string(normOf(t, c.b).Canonical)
		if a != b || a != c.want {
			t.Errorf("fingerprints:\n  %q\n  %q\nwant %q", a, b, c.want)
		}
	}
}

// Literal-sensitive positions stay inline: SELECT-list constants name
// output columns, GROUP BY / ORDER BY integers are ordinals, the LIMIT
// operand gates parallelization, and the grammar demands a literal
// after DATE.
func TestNormalizeKeepsSensitiveLiterals(t *testing.T) {
	cases := []struct{ sql, want string }{
		{"SELECT 1, name FROM t LIMIT 10", "SELECT 1 , name FROM t LIMIT 10"},
		{"SELECT a FROM t ORDER BY 2 DESC", "SELECT a FROM t ORDER BY 2 DESC"},
		{"SELECT a FROM t GROUP BY 1", "SELECT a FROM t GROUP BY 1"},
		{"SELECT a FROM t WHERE d < DATE '2024-01-02'", "SELECT a FROM t WHERE d < DATE '2024-01-02'"},
		{"SELECT a FROM t WHERE b = TRUE AND c IS NOT NULL", "SELECT a FROM t WHERE b = TRUE AND c IS NOT NULL"},
	}
	for _, c := range cases {
		if got := string(normOf(t, c.sql).Canonical); got != c.want {
			t.Errorf("Normalize(%q) = %q, want %q", c.sql, got, c.want)
		}
	}
}

// Parenthesized clause state: a subquery's WHERE is parameterizable
// even when the subquery sits in the outer SELECT list, and vice versa
// a by-list restores after a paren group.
func TestNormalizeClauseStateStack(t *testing.T) {
	n := normOf(t, "SELECT (SELECT MAX(x) FROM u WHERE y = 5), 3 FROM t WHERE z = 7")
	want := "SELECT ( SELECT MAX ( x ) FROM u WHERE y = ? ) , 3 FROM t WHERE z = ?"
	if got := string(n.Canonical); got != want {
		t.Fatalf("canonical = %q, want %q", got, want)
	}
	if len(n.Vals) != 2 || n.Vals[0].Int() != 5 || n.Vals[1].Int() != 7 {
		t.Fatalf("lifted values wrong: %v", n.Vals)
	}
}

func TestNormalizeUserPlaceholders(t *testing.T) {
	n := normOf(t, "SELECT a FROM t WHERE b = ? AND c = 10 AND d = ?")
	if n.NUser != 2 || len(n.Vals) != 3 {
		t.Fatalf("user = %d slots = %d, want 2/3", n.NUser, len(n.Vals))
	}
	// Slots interleave in source order: user, lifted, user.
	wantUser := []bool{true, false, true}
	for i, u := range wantUser {
		if n.User[i] != u {
			t.Fatalf("User = %v, want %v", n.User, wantUser)
		}
	}
	if n.Vals[1].Int() != 10 {
		t.Fatalf("lifted slot value = %v, want 10", n.Vals[1])
	}
}

func TestNormalizeStringEscapes(t *testing.T) {
	n := normOf(t, "SELECT a FROM t WHERE nm = 'O''Brien'")
	if len(n.Vals) != 1 || n.Vals[0].Str() != "O'Brien" {
		t.Fatalf("lifted escaped string = %v", n.Vals)
	}
}

func TestNormalizeRejects(t *testing.T) {
	cases := []string{
		"",                         // empty
		"INSERT INTO t VALUES (1)", // not a SELECT
		"EXPLAIN SELECT 1",         // utility wrapper
		"SELECT 1; SELECT 2",       // script
		"BEGIN",                    // tx control
		"SELECT 'unterminated",     // lex error
		"; SELECT 1",               // leading semicolon
	}
	var n Norm
	for _, sql := range cases {
		if Normalize(sql, &n) {
			t.Errorf("Normalize(%q) = true, want false", sql)
		}
	}
}

func TestNormalizeTrailingSemicolon(t *testing.T) {
	a := string(normOf(t, "SELECT a FROM t").Canonical)
	b := string(normOf(t, "SELECT a FROM t ;").Canonical)
	if a != b {
		t.Fatalf("trailing semicolon changed fingerprint: %q vs %q", a, b)
	}
}

func TestNormalizeScratchReuse(t *testing.T) {
	var n Norm
	if !Normalize("SELECT a FROM t WHERE x = 1 AND y = 'q'", &n) {
		t.Fatal("first Normalize failed")
	}
	if !Normalize("SELECT b FROM u WHERE z = 2", &n) {
		t.Fatal("second Normalize failed")
	}
	if got, want := string(n.Canonical), "SELECT b FROM u WHERE z = ?"; got != want {
		t.Fatalf("reused-scratch canonical = %q, want %q", got, want)
	}
	if len(n.Vals) != 1 || n.Vals[0].Int() != 2 {
		t.Fatalf("reused-scratch vals = %v", n.Vals)
	}
}

// The warm normalization path must not allocate: scratch slices are
// reused across calls on one Norm.
func TestNormalizeZeroAllocWarm(t *testing.T) {
	var n Norm
	sql := "SELECT name, ssn FROM patients WHERE id = 42 AND state = 'CA' ORDER BY name LIMIT 5"
	Normalize(sql, &n) // warm the scratch
	allocs := testing.AllocsPerRun(100, func() {
		if !Normalize(sql, &n) {
			t.Fatal("Normalize failed")
		}
	})
	if allocs > 0 {
		t.Fatalf("warm Normalize allocates %.1f/op, want 0", allocs)
	}
}

// numberValue must agree exactly with the parser's literal conversion.
func TestNumberValue(t *testing.T) {
	v, ok := numberValue("42")
	if !ok || v.Kind != value.KindInt || v.Int() != 42 {
		t.Fatalf("numberValue(42) = %v %v", v, ok)
	}
	f, ok := numberValue("4.5")
	if !ok || f.Kind != value.KindFloat {
		t.Fatalf("numberValue(4.5) = %v %v", f, ok)
	}
	if _, ok := numberValue("99999999999999999999999999"); ok {
		t.Fatal("overflowing int literal should not normalize")
	}
}
