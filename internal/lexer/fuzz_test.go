package lexer

import (
	"testing"
)

// FuzzLex drives the zero-allocation scanner over arbitrary bytes. The
// scanner must never panic, must terminate, must keep every token span
// inside the input, and must stay at end of input once it fails.
func FuzzLex(f *testing.F) {
	seeds := []string{
		"SELECT name, ssn FROM patients WHERE id = 42",
		"select * from t where a <> b and c != d or e || f",
		`SELECT "quoted ident", 'str''esc' FROM t -- comment`,
		"/* block */ SELECT 1.5e, .5, 0x, 9999999999999999999999",
		"SELECT 'unterminated",
		"/* unterminated block",
		"émoji 字段 SELECT",
		"??;;..''\"\"",
		"",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var sc Scanner
		sc.Init(input)
		n := 0
		for sc.Scan() != TokEOF {
			if sc.End < sc.Start || sc.Start < 0 || sc.End > len(input) {
				t.Fatalf("token span [%d,%d) out of bounds for input of %d bytes", sc.Start, sc.End, len(input))
			}
			_ = sc.Text()
			if sc.Kind == TokString {
				_ = sc.StringText()
			}
			n++
			if n > len(input)+1 {
				t.Fatalf("scanner produced %d tokens for %d input bytes: not terminating", n, len(input))
			}
		}
		// An error ends the scan for good: the scanner keeps reporting
		// end of input and never clears the error.
		if err := sc.Err(); err != nil {
			if sc.Scan() != TokEOF || sc.Err() != err {
				t.Fatalf("scanner resumed after error %v", err)
			}
		}
	})
}

// FuzzNormalize checks that normalization never panics and is
// idempotent: re-normalizing the canonical text reproduces it byte for
// byte, with every previously-lifted literal now a user placeholder.
func FuzzNormalize(f *testing.F) {
	seeds := []string{
		"SELECT name FROM patients WHERE id = 42 AND state = 'CA'",
		"SELECT 1, a FROM t GROUP BY 1 ORDER BY 2 LIMIT 3",
		"SELECT a FROM t WHERE b IN (1, 2, 3) AND c BETWEEN 4 AND 5",
		"SELECT a FROM t WHERE d = DATE '2024-01-02' AND e = ?",
		"SELECT (SELECT MAX(x) FROM u WHERE y = 5) FROM t",
		"SELECT a FROM t WHERE nm = 'O''Brien';",
		"INSERT INTO t VALUES (1)",
		"SELECT 'unterminated",
		"select",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		var n Norm
		if !Normalize(input, &n) {
			return
		}
		canon := string(n.Canonical)
		slots := len(n.Vals)
		if len(n.User) != slots {
			t.Fatalf("len(Vals)=%d len(User)=%d", slots, len(n.User))
		}

		var again Norm
		if !Normalize(canon, &again) {
			t.Fatalf("canonical %q does not re-normalize", canon)
		}
		if got := string(again.Canonical); got != canon {
			t.Fatalf("not idempotent:\n  first  %q\n  second %q", canon, got)
		}
		if len(again.Vals) != slots || again.NUser != slots {
			t.Fatalf("canonical %q re-normalized to %d slots (%d user), want %d user slots",
				canon, len(again.Vals), again.NUser, slots)
		}
	})
}
