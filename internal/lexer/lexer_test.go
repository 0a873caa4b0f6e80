package lexer

import "testing"

// tok is one scanned token as the tests compare it: keyword and
// operator text in canonical spelling, string contents unescaped.
type tok struct {
	Kind TokenKind
	Text string
}

// scanAll drains a Scanner over input, returning the tokens before end
// of input and the scanner's error.
func scanAll(input string) ([]tok, error) {
	var sc Scanner
	sc.Init(input)
	var out []tok
	for {
		k := sc.Scan()
		if k == TokEOF {
			return out, sc.Err()
		}
		t := tok{Kind: k}
		switch k {
		case TokKeyword:
			t.Text = sc.Kw.String()
		case TokOp:
			t.Text = sc.Op.String()
		case TokString:
			t.Text = sc.StringText()
		default:
			t.Text = sc.Text()
		}
		out = append(out, t)
	}
}

func TestLexSimpleSelect(t *testing.T) {
	toks, err := scanAll("SELECT name FROM patients WHERE age >= 21")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		kind TokenKind
		text string
	}{
		{TokKeyword, "SELECT"}, {TokIdent, "name"}, {TokKeyword, "FROM"},
		{TokIdent, "patients"}, {TokKeyword, "WHERE"}, {TokIdent, "age"},
		{TokOp, ">="}, {TokNumber, "21"},
	}
	if len(toks) != len(want) {
		t.Fatalf("got %d tokens, want %d: %v", len(toks), len(want), toks)
	}
	for i, w := range want {
		if toks[i].Kind != w.kind || toks[i].Text != w.text {
			t.Errorf("token %d = {%v %q}, want {%v %q}", i, toks[i].Kind, toks[i].Text, w.kind, w.text)
		}
	}
}

func TestLexKeywordsCaseInsensitive(t *testing.T) {
	toks, err := scanAll("select Select SELECT")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if toks[i].Kind != TokKeyword || toks[i].Text != "SELECT" {
			t.Errorf("token %d = %+v", i, toks[i])
		}
	}
}

func TestLexStringEscapes(t *testing.T) {
	toks, err := scanAll("'O''Brien' ''")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Text != "O'Brien" {
		t.Errorf("escaped string = %q", toks[0].Text)
	}
	if toks[1].Text != "" {
		t.Errorf("empty string = %q", toks[1].Text)
	}
}

func TestLexUnterminatedString(t *testing.T) {
	if _, err := scanAll("SELECT 'oops"); err == nil {
		t.Error("unterminated string should fail")
	}
}

func TestLexNumbers(t *testing.T) {
	toks, err := scanAll("1 2.5 .75 100.")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"1", "2.5", ".75", "100."}
	for i, w := range want {
		if toks[i].Kind != TokNumber || toks[i].Text != w {
			t.Errorf("number %d = %+v, want %q", i, toks[i], w)
		}
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := scanAll("= <> != < <= > >= + - * / % ( ) , ; .")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"=", "<>", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "(", ")", ",", ";", "."}
	for i, w := range want {
		if toks[i].Kind != TokOp || toks[i].Text != w {
			t.Errorf("op %d = %+v, want %q", i, toks[i], w)
		}
	}
}

func TestLexComments(t *testing.T) {
	toks, err := scanAll("SELECT -- a comment\n 1 /* block\ncomment */ + 2")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"SELECT", "1", "+", "2"}
	if len(toks) != len(want) {
		t.Fatalf("tokens = %v", toks)
	}
	for i, w := range want {
		if toks[i].Text != w {
			t.Errorf("token %d = %q, want %q", i, toks[i].Text, w)
		}
	}
	if _, err := scanAll("/* unterminated"); err == nil {
		t.Error("unterminated block comment should fail")
	}
}

func TestLexQuotedIdent(t *testing.T) {
	toks, err := scanAll(`"Order Details"`)
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "Order Details" {
		t.Errorf("quoted ident = %+v", toks[0])
	}
	if _, err := scanAll(`"unterminated`); err == nil {
		t.Error("unterminated quoted ident should fail")
	}
}

func TestLexAuditDDL(t *testing.T) {
	toks, err := scanAll("CREATE AUDIT EXPRESSION a AS SELECT * FROM t FOR SENSITIVE TABLE t PARTITION BY id")
	if err != nil {
		t.Fatal(err)
	}
	kw := 0
	for _, tok := range toks {
		if tok.Kind == TokKeyword {
			kw++
		}
	}
	// CREATE AUDIT EXPRESSION AS SELECT FROM FOR SENSITIVE TABLE PARTITION BY
	if kw != 11 {
		t.Errorf("keyword count = %d, tokens %v", kw, toks)
	}
}

func TestLexIdentWithDollar(t *testing.T) {
	toks, err := scanAll("c_acctbal > $1")
	if err == nil {
		// '$' only valid inside identifiers; leading $ is rejected.
		t.Fatalf("expected error, got %v", toks)
	}
}

func TestLexFunctionsAreIdents(t *testing.T) {
	toks, err := scanAll("YEAR(o_orderdate)")
	if err != nil {
		t.Fatal(err)
	}
	if toks[0].Kind != TokIdent || toks[0].Text != "YEAR" {
		t.Errorf("YEAR should lex as identifier, got %+v", toks[0])
	}
}

func TestLexUnexpectedChar(t *testing.T) {
	if _, err := scanAll("SELECT #"); err == nil {
		t.Error("expected error for '#'")
	}
}

func TestTokenKindString(t *testing.T) {
	names := map[TokenKind]string{
		TokEOF: "end of input", TokIdent: "identifier", TokKeyword: "keyword",
		TokNumber: "number", TokString: "string", TokOp: "operator",
	}
	for k, w := range names {
		if k.String() != w {
			t.Errorf("%v.String() = %q", k, k.String())
		}
	}
}
