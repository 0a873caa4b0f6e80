// Package parser implements a recursive-descent parser for the
// engine's SQL dialect: SELECT (joins, grouping, ordering, limits,
// subqueries), INSERT/UPDATE/DELETE, CREATE TABLE/INDEX, and the
// auditing DDL from the paper — CREATE AUDIT EXPRESSION and
// CREATE TRIGGER ... ON ACCESS TO ... — plus IF/NOTIFY action
// statements for trigger bodies.
//
// The parser pulls tokens straight from a lexer.Scanner through a
// three-token lookahead window — no token slice is materialized — and
// slab-allocates the hot AST node types, so a warm parse performs a
// handful of allocations for the AST itself and nothing else.
package parser

import (
	"fmt"
	"strconv"
	"strings"

	"auditdb/internal/ast"
	"auditdb/internal/lexer"
	"auditdb/internal/value"
)

// tok is one buffered token: pure spans and enums, no strings. kw is
// meaningful only when kind == TokKeyword, op only when kind == TokOp.
type tok struct {
	kind       lexer.TokenKind
	kw         lexer.Keyword
	op         lexer.OpKind
	pos        int // token start, for error offsets and body spans
	start, end int // content span (inside the quotes for strings)
	escaped    bool
}

type parser struct {
	input    string
	sc       lexer.Scanner
	cur, nxt tok // two-token lookahead window
	params   int // number of ? placeholders seen
	lexErr   error
	a        arena
}

func newParser(input string) *parser {
	p := &parser{input: input}
	p.sc.Init(input)
	p.scanTok(&p.cur)
	p.scanTok(&p.nxt)
	return p
}

// Parse parses a single SQL statement.
func Parse(input string) (ast.Stmt, error) {
	stmts, err := ParseScript(input)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// ParseScript parses a semicolon-separated sequence of statements.
func ParseScript(input string) ([]ast.Stmt, error) {
	stmts, _, err := ParseScriptText(input)
	return stmts, err
}

// ParseScriptText is ParseScript that also returns each statement's
// own source text: the span from its first token to its terminating
// semicolon (or the end of input), trimmed of surrounding space.
func ParseScriptText(input string) ([]ast.Stmt, []string, error) {
	p := newParser(input)
	var stmts []ast.Stmt
	var texts []string
	for {
		for p.matchOp(lexer.OpSemi) {
		}
		if p.peek().kind == lexer.TokEOF {
			break
		}
		start := p.peek().pos
		s, err := p.parseStatement()
		if err != nil {
			return nil, nil, err
		}
		stmts = append(stmts, s)
		texts = append(texts, strings.TrimSpace(input[start:p.peek().pos]))
		if !p.matchOp(lexer.OpSemi) && p.peek().kind != lexer.TokEOF {
			return nil, nil, p.errf("expected ';' or end of input, found %s", p.describe(p.peek()))
		}
	}
	if p.lexErr != nil {
		return nil, nil, p.lexErr
	}
	if len(stmts) == 0 {
		return nil, nil, fmt.Errorf("empty statement")
	}
	return stmts, texts, nil
}

// CountParams reports how many ? placeholders a statement uses.
func CountParams(input string) (int, error) {
	var sc lexer.Scanner
	sc.Init(input)
	n := 0
	for {
		kind := sc.Scan()
		if kind == lexer.TokEOF {
			if err := sc.Err(); err != nil {
				return 0, err
			}
			return n, nil
		}
		if kind == lexer.TokOp && sc.Op == lexer.OpQuestion {
			n++
		}
	}
}

// ParseQuery parses a single SELECT statement.
func ParseQuery(input string) (*ast.Select, error) {
	s, err := Parse(input)
	if err != nil {
		return nil, err
	}
	sel, ok := s.(*ast.Select)
	if !ok {
		return nil, fmt.Errorf("expected a SELECT statement")
	}
	return sel, nil
}

// scanTok pulls the next token from the scanner into t. The scanner
// keeps returning TokEOF at end of input (or after a lexical error),
// so the lookahead window is always populated.
func (p *parser) scanTok(t *tok) {
	kind := p.sc.Scan()
	if err := p.sc.Err(); err != nil && p.lexErr == nil {
		p.lexErr = err
	}
	t.kind, t.kw, t.op = kind, p.sc.Kw, p.sc.Op
	t.pos, t.start, t.end = p.sc.Pos, p.sc.Start, p.sc.End
	t.escaped = p.sc.Escaped
}

func (p *parser) peek() tok { return p.cur }

func (p *parser) peek2() tok { return p.nxt }

// advance moves the window forward one token (no-op at EOF).
func (p *parser) advance() {
	if p.cur.kind != lexer.TokEOF {
		p.cur = p.nxt
		p.scanTok(&p.nxt)
	}
}

func (p *parser) next() tok {
	t := p.cur
	p.advance()
	return t
}

// text returns a token's raw source span (identifier spelling, number
// digits); it shares the input's backing array.
func (p *parser) text(t tok) string { return p.input[t.start:t.end] }

// strText returns a string literal's value, collapsing ” escapes.
func (p *parser) strText(t tok) string {
	raw := p.input[t.start:t.end]
	if !t.escaped {
		return raw
	}
	return strings.ReplaceAll(raw, "''", "'")
}

func (p *parser) describe(t tok) string {
	switch t.kind {
	case lexer.TokEOF:
		return "end of input"
	case lexer.TokKeyword:
		return fmt.Sprintf("%q", t.kw.String())
	case lexer.TokOp:
		return fmt.Sprintf("%q", t.op.String())
	case lexer.TokString:
		return fmt.Sprintf("%q", p.strText(t))
	default:
		return fmt.Sprintf("%q", p.text(t))
	}
}

func (p *parser) errf(format string, args ...any) error {
	if p.lexErr != nil {
		return p.lexErr
	}
	return fmt.Errorf("parse error at offset %d: %s", p.peek().pos, fmt.Sprintf(format, args...))
}

func (p *parser) matchKeyword(kw lexer.Keyword) bool {
	if p.cur.kind == lexer.TokKeyword && p.cur.kw == kw {
		p.advance()
		return true
	}
	return false
}

func (p *parser) peekKeyword(kw lexer.Keyword) bool {
	return p.cur.kind == lexer.TokKeyword && p.cur.kw == kw
}

func (p *parser) expectKeyword(kw lexer.Keyword) error {
	if !p.matchKeyword(kw) {
		return p.errf("expected %s, found %s", kw.String(), p.describe(p.peek()))
	}
	return nil
}

func (p *parser) matchOp(op lexer.OpKind) bool {
	if p.cur.kind == lexer.TokOp && p.cur.op == op {
		p.advance()
		return true
	}
	return false
}

func (p *parser) peekOp(op lexer.OpKind) bool {
	return p.cur.kind == lexer.TokOp && p.cur.op == op
}

func (p *parser) expectOp(op lexer.OpKind) error {
	if !p.matchOp(op) {
		return p.errf("expected %q, found %s", op.String(), p.describe(p.peek()))
	}
	return nil
}

// ident accepts an identifier token and returns its spelling (a
// substring of the input; quoted identifiers drop their quotes).
func (p *parser) ident() (string, error) {
	if p.cur.kind == lexer.TokIdent {
		return p.text(p.next()), nil
	}
	return "", p.errf("expected identifier, found %s", p.describe(p.cur))
}

// softIdent reports whether the current token is an identifier
// spelling the given (uppercase) soft keyword.
func (p *parser) softIdent(t tok, word string) bool {
	return t.kind == lexer.TokIdent && strings.EqualFold(p.text(t), word)
}

func (p *parser) parseStatement() (ast.Stmt, error) {
	t := p.peek()
	// NOTIFY is a soft keyword: recognized at statement start only, so
	// that triggers and tables may still be named "Notify" (as in the
	// paper's §II-C example).
	if p.softIdent(t, "NOTIFY") {
		return p.parseNotify()
	}
	// VERIFY is likewise soft: only "VERIFY AUDIT LOG" is a statement.
	if p.softIdent(t, "VERIFY") {
		return p.parseVerifyAuditLog()
	}
	if t.kind != lexer.TokKeyword {
		return nil, p.errf("expected statement, found %s", p.describe(t))
	}
	switch t.kw {
	case lexer.KwSelect:
		return p.parseSelect()
	case lexer.KwInsert:
		return p.parseInsert()
	case lexer.KwUpdate:
		return p.parseUpdate()
	case lexer.KwDelete:
		return p.parseDelete()
	case lexer.KwCreate:
		return p.parseCreate()
	case lexer.KwDrop:
		return p.parseDrop()
	case lexer.KwIf:
		return p.parseIf()
	case lexer.KwExplain:
		p.next()
		// ANALYZE is not a reserved word (it stays usable as an
		// identifier), so match it as a bare ident after EXPLAIN.
		analyze := false
		if p.softIdent(p.peek(), "ANALYZE") {
			p.next()
			analyze = true
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ast.Explain{Query: q, Analyze: analyze}, nil
	case lexer.KwBegin:
		p.next()
		return &ast.TxBegin{}, nil
	case lexer.KwCommit:
		p.next()
		return &ast.TxCommit{}, nil
	case lexer.KwRollback:
		p.next()
		return &ast.TxRollback{}, nil
	default:
		return nil, p.errf("unexpected keyword %s at start of statement", t.kw.String())
	}
}

func (p *parser) parseSelect() (*ast.Select, error) {
	if err := p.expectKeyword(lexer.KwSelect); err != nil {
		return nil, err
	}
	sel := p.a.selectStmt()
	sel.Items = p.a.selectItems()
	if p.matchKeyword(lexer.KwDistinct) {
		sel.Distinct = true
	} else {
		p.matchKeyword(lexer.KwAll)
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		sel.Items = append(sel.Items, item)
		if !p.matchOp(lexer.OpComma) {
			break
		}
	}
	if p.matchKeyword(lexer.KwFrom) {
		for {
			ref, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			sel.From = append(sel.From, ref)
			if !p.matchOp(lexer.OpComma) {
				break
			}
		}
	}
	if p.matchKeyword(lexer.KwWhere) {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Where = w
	}
	if p.matchKeyword(lexer.KwGroup) {
		if err := p.expectKeyword(lexer.KwBy); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			sel.GroupBy = append(sel.GroupBy, e)
			if !p.matchOp(lexer.OpComma) {
				break
			}
		}
	}
	if p.matchKeyword(lexer.KwHaving) {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		sel.Having = h
	}
	if p.matchKeyword(lexer.KwOrder) {
		if err := p.expectKeyword(lexer.KwBy); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			item := ast.OrderItem{Expr: e}
			if p.matchKeyword(lexer.KwDesc) {
				item.Desc = true
			} else {
				p.matchKeyword(lexer.KwAsc)
			}
			sel.OrderBy = append(sel.OrderBy, item)
			if !p.matchOp(lexer.OpComma) {
				break
			}
		}
	}
	if p.matchKeyword(lexer.KwLimit) {
		t := p.peek()
		if t.kind != lexer.TokNumber {
			return nil, p.errf("expected number after LIMIT")
		}
		p.next()
		n, err := strconv.ParseInt(p.text(t), 10, 64)
		if err != nil || n < 0 {
			return nil, p.errf("invalid LIMIT %q", p.text(t))
		}
		sel.Limit = n
	}
	return sel, nil
}

func (p *parser) parseSelectItem() (ast.SelectItem, error) {
	if p.matchOp(lexer.OpStar) {
		return ast.SelectItem{Star: true}, nil
	}
	// ident.* form. Disambiguating from a qualified column needs a
	// third token of lookahead; since the scanner is a value, saving
	// and restoring the whole window is a cheap struct copy.
	if p.cur.kind == lexer.TokIdent && p.nxt.kind == lexer.TokOp && p.nxt.op == lexer.OpDot {
		saveSc, saveCur, saveNxt := p.sc, p.cur, p.nxt
		name := p.text(p.next())
		p.advance() // .
		if p.matchOp(lexer.OpStar) {
			return ast.SelectItem{Star: true, StarTable: name}, nil
		}
		p.sc, p.cur, p.nxt = saveSc, saveCur, saveNxt
	}
	e, err := p.parseExpr()
	if err != nil {
		return ast.SelectItem{}, err
	}
	item := ast.SelectItem{Expr: e}
	if p.matchKeyword(lexer.KwAs) {
		a, err := p.ident()
		if err != nil {
			return ast.SelectItem{}, err
		}
		item.Alias = a
	} else if p.peek().kind == lexer.TokIdent {
		item.Alias = p.text(p.next())
	}
	return item, nil
}

// parseTableRef parses one FROM item with any trailing JOIN chain.
func (p *parser) parseTableRef() (ast.TableRef, error) {
	left, err := p.parseTablePrimary()
	if err != nil {
		return nil, err
	}
	for {
		kind := ast.JoinInner
		switch {
		case p.matchKeyword(lexer.KwJoin):
		case p.peekKeyword(lexer.KwInner):
			p.next()
			if err := p.expectKeyword(lexer.KwJoin); err != nil {
				return nil, err
			}
		case p.peekKeyword(lexer.KwLeft):
			p.next()
			p.matchKeyword(lexer.KwOuter)
			if err := p.expectKeyword(lexer.KwJoin); err != nil {
				return nil, err
			}
			kind = ast.JoinLeft
		case p.peekKeyword(lexer.KwCross):
			p.next()
			if err := p.expectKeyword(lexer.KwJoin); err != nil {
				return nil, err
			}
			kind = ast.JoinCross
		default:
			return left, nil
		}
		right, err := p.parseTablePrimary()
		if err != nil {
			return nil, err
		}
		j := &ast.JoinRef{Kind: kind, Left: left, Right: right}
		if kind != ast.JoinCross {
			if err := p.expectKeyword(lexer.KwOn); err != nil {
				return nil, err
			}
			cond, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			j.On = cond
		}
		left = j
	}
}

func (p *parser) parseTablePrimary() (ast.TableRef, error) {
	if p.matchOp(lexer.OpLParen) {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(lexer.OpRParen); err != nil {
			return nil, err
		}
		p.matchKeyword(lexer.KwAs)
		alias, err := p.ident()
		if err != nil {
			return nil, fmt.Errorf("derived table requires an alias: %w", err)
		}
		return &ast.SubqueryRef{Sub: sub, Alias: alias}, nil
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if p.matchOp(lexer.OpDot) {
		// schema.name: the system relations (sys.traces, ...).
		rel, err := p.ident()
		if err != nil {
			return nil, err
		}
		name += "." + rel
	}
	bt := p.a.baseTable(name)
	if p.matchKeyword(lexer.KwAs) {
		a, err := p.ident()
		if err != nil {
			return nil, err
		}
		bt.Alias = a
	} else if p.peek().kind == lexer.TokIdent {
		bt.Alias = p.text(p.next())
	}
	return bt, nil
}

func (p *parser) parseInsert() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwInsert); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwInto); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ins := &ast.Insert{Table: name}
	if p.peekOp(lexer.OpLParen) {
		p.next()
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			ins.Columns = append(ins.Columns, col)
			if !p.matchOp(lexer.OpComma) {
				break
			}
		}
		if err := p.expectOp(lexer.OpRParen); err != nil {
			return nil, err
		}
	}
	switch {
	case p.matchKeyword(lexer.KwValues):
		for {
			if err := p.expectOp(lexer.OpLParen); err != nil {
				return nil, err
			}
			var row []ast.Expr
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				row = append(row, e)
				if !p.matchOp(lexer.OpComma) {
					break
				}
			}
			if err := p.expectOp(lexer.OpRParen); err != nil {
				return nil, err
			}
			ins.Rows = append(ins.Rows, row)
			if !p.matchOp(lexer.OpComma) {
				break
			}
		}
	case p.peekKeyword(lexer.KwSelect):
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		ins.Query = q
	default:
		return nil, p.errf("expected VALUES or SELECT in INSERT")
	}
	return ins, nil
}

func (p *parser) parseUpdate() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwUpdate); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	up := &ast.Update{Table: name}
	if p.peek().kind == lexer.TokIdent {
		up.Alias = p.text(p.next())
	}
	if err := p.expectKeyword(lexer.KwSet); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectOp(lexer.OpEq); err != nil {
			return nil, err
		}
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Set = append(up.Set, ast.Assignment{Column: col, Value: e})
		if !p.matchOp(lexer.OpComma) {
			break
		}
	}
	if p.matchKeyword(lexer.KwWhere) {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		up.Where = w
	}
	return up, nil
}

func (p *parser) parseDelete() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwDelete); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwFrom); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	del := &ast.Delete{Table: name}
	if p.peek().kind == lexer.TokIdent {
		del.Alias = p.text(p.next())
	}
	if p.matchKeyword(lexer.KwWhere) {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		del.Where = w
	}
	return del, nil
}

func (p *parser) parseCreate() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwCreate); err != nil {
		return nil, err
	}
	switch {
	case p.matchKeyword(lexer.KwTable):
		return p.parseCreateTable()
	case p.matchKeyword(lexer.KwIndex), p.matchKeyword(lexer.KwUnique):
		p.matchKeyword(lexer.KwIndex) // after UNIQUE
		return p.parseCreateIndex()
	case p.matchKeyword(lexer.KwView):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		if err := p.expectKeyword(lexer.KwAs); err != nil {
			return nil, err
		}
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &ast.CreateView{Name: name, Query: q}, nil
	case p.matchKeyword(lexer.KwAudit):
		return p.parseCreateAuditExpression()
	case p.matchKeyword(lexer.KwTrigger):
		return p.parseCreateTrigger()
	default:
		return nil, p.errf("expected TABLE, INDEX, AUDIT or TRIGGER after CREATE")
	}
}

func (p *parser) parseCreateTable() (ast.Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	ct := &ast.CreateTable{Name: name}
	if err := p.expectOp(lexer.OpLParen); err != nil {
		return nil, err
	}
	for {
		if p.matchKeyword(lexer.KwPrimary) {
			if err := p.expectKeyword(lexer.KwKey); err != nil {
				return nil, err
			}
			if err := p.expectOp(lexer.OpLParen); err != nil {
				return nil, err
			}
			for {
				col, err := p.ident()
				if err != nil {
					return nil, err
				}
				ct.PrimaryKey = append(ct.PrimaryKey, col)
				if !p.matchOp(lexer.OpComma) {
					break
				}
			}
			if err := p.expectOp(lexer.OpRParen); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			ct.Columns = append(ct.Columns, col)
		}
		if !p.matchOp(lexer.OpComma) {
			break
		}
	}
	if err := p.expectOp(lexer.OpRParen); err != nil {
		return nil, err
	}
	return ct, nil
}

func (p *parser) parseColumnDef() (ast.ColumnDef, error) {
	name, err := p.ident()
	if err != nil {
		return ast.ColumnDef{}, err
	}
	// The type name may lex as an identifier (INT, VARCHAR, ...) or as
	// the DATE keyword.
	var typeName string
	t := p.peek()
	switch {
	case t.kind == lexer.TokIdent:
		typeName = p.text(p.next())
	case t.kind == lexer.TokKeyword && t.kw == lexer.KwDate:
		p.next()
		typeName = "DATE"
	default:
		return ast.ColumnDef{}, p.errf("expected type name for column %s", name)
	}
	// Swallow optional length/precision: VARCHAR(25), DECIMAL(15,2).
	if p.matchOp(lexer.OpLParen) {
		for !p.matchOp(lexer.OpRParen) {
			if p.peek().kind == lexer.TokEOF {
				return ast.ColumnDef{}, p.errf("unterminated type parameters")
			}
			p.next()
		}
	}
	kind, err := value.ParseKind(typeName)
	if err != nil {
		return ast.ColumnDef{}, p.errf("%v", err)
	}
	def := ast.ColumnDef{Name: name, Type: kind}
	if p.matchKeyword(lexer.KwPrimary) {
		if err := p.expectKeyword(lexer.KwKey); err != nil {
			return ast.ColumnDef{}, err
		}
		def.PrimaryKey = true
	}
	p.matchKeyword(lexer.KwNot) // NOT NULL accepted and ignored
	// (NULL keyword follows NOT)
	if p.peekKeyword(lexer.KwNull) {
		p.next()
	}
	return def, nil
}

func (p *parser) parseCreateIndex() (ast.Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwOn); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	ci := &ast.CreateIndex{Name: name, Table: table}
	if err := p.expectOp(lexer.OpLParen); err != nil {
		return nil, err
	}
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		ci.Columns = append(ci.Columns, col)
		if !p.matchOp(lexer.OpComma) {
			break
		}
	}
	if err := p.expectOp(lexer.OpRParen); err != nil {
		return nil, err
	}
	return ci, nil
}

// parseCreateAuditExpression parses the paper's audit DDL (§II-A):
//
//	CREATE AUDIT EXPRESSION name AS SELECT ...
//	FOR SENSITIVE TABLE t PARTITION BY col
func (p *parser) parseCreateAuditExpression() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwExpression); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwAs); err != nil {
		return nil, err
	}
	q, err := p.parseSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwFor); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwSensitive); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwTable); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	// The comma before PARTITION BY in the paper's syntax is optional.
	p.matchOp(lexer.OpComma)
	if err := p.expectKeyword(lexer.KwPartition); err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwBy); err != nil {
		return nil, err
	}
	key, err := p.ident()
	if err != nil {
		return nil, err
	}
	node := &ast.CreateAuditExpression{Name: name, Query: q, SensitiveTable: table, PartitionBy: key}
	// Optional triage weight: ... PARTITION BY key PRIORITY n
	if t := p.peek(); p.softIdent(t, "PRIORITY") {
		p.next()
		nt := p.peek()
		if nt.kind != lexer.TokNumber {
			return nil, p.errf("expected a number after PRIORITY, found %s", p.describe(nt))
		}
		p.next()
		n, err := strconv.Atoi(p.text(nt))
		if err != nil || n < 0 {
			return nil, p.errf("invalid PRIORITY %q", p.text(nt))
		}
		node.Priority = n
	}
	return node, nil
}

// parseCreateTrigger parses both trigger forms:
//
//	CREATE TRIGGER name ON ACCESS TO auditexpr AS <body>   (SELECT trigger)
//	CREATE TRIGGER name ON table AFTER INSERT|UPDATE|DELETE AS <body>
func (p *parser) parseCreateTrigger() (ast.Stmt, error) {
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword(lexer.KwOn); err != nil {
		return nil, err
	}
	tr := &ast.CreateTrigger{Name: name}
	if p.matchKeyword(lexer.KwAccess) {
		if err := p.expectKeyword(lexer.KwTo); err != nil {
			return nil, err
		}
		target, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Event = ast.EventAccess
		tr.Target = target
	} else {
		target, err := p.ident()
		if err != nil {
			return nil, err
		}
		tr.Target = target
		if err := p.expectKeyword(lexer.KwAfter); err != nil {
			return nil, err
		}
		switch {
		case p.matchKeyword(lexer.KwInsert):
			tr.Event = ast.EventInsert
		case p.matchKeyword(lexer.KwUpdate):
			tr.Event = ast.EventUpdate
		case p.matchKeyword(lexer.KwDelete):
			tr.Event = ast.EventDelete
		default:
			return nil, p.errf("expected INSERT, UPDATE or DELETE after AFTER")
		}
	}
	if err := p.expectKeyword(lexer.KwAs); err != nil {
		return nil, err
	}
	bodyStart := p.peek().pos
	if p.matchKeyword(lexer.KwBegin) {
		for !p.matchKeyword(lexer.KwEnd) {
			if p.peek().kind == lexer.TokEOF {
				return nil, p.errf("unterminated trigger body (missing END)")
			}
			s, err := p.parseStatement()
			if err != nil {
				return nil, err
			}
			tr.Body = append(tr.Body, s)
			p.matchOp(lexer.OpSemi)
		}
	} else {
		s, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		tr.Body = append(tr.Body, s)
	}
	tr.ActionSQL = strings.TrimSpace(p.input[bodyStart:p.peek().pos])
	return tr, nil
}

func (p *parser) parseDrop() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwDrop); err != nil {
		return nil, err
	}
	switch {
	case p.matchKeyword(lexer.KwTable):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropTable{Name: name}, nil
	case p.matchKeyword(lexer.KwView):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropView{Name: name}, nil
	case p.matchKeyword(lexer.KwIndex):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropIndex{Name: name}, nil
	case p.matchKeyword(lexer.KwTrigger):
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropTrigger{Name: name}, nil
	case p.matchKeyword(lexer.KwAudit):
		if err := p.expectKeyword(lexer.KwExpression); err != nil {
			return nil, err
		}
		name, err := p.ident()
		if err != nil {
			return nil, err
		}
		return &ast.DropAuditExpression{Name: name}, nil
	default:
		return nil, p.errf("expected TABLE, TRIGGER or AUDIT EXPRESSION after DROP")
	}
}

// parseIf parses a guarded trigger action: IF (cond) <stmt>.
func (p *parser) parseIf() (ast.Stmt, error) {
	if err := p.expectKeyword(lexer.KwIf); err != nil {
		return nil, err
	}
	if err := p.expectOp(lexer.OpLParen); err != nil {
		return nil, err
	}
	cond, err := p.parseExprOrSelect()
	if err != nil {
		return nil, err
	}
	if err := p.expectOp(lexer.OpRParen); err != nil {
		return nil, err
	}
	body, err := p.parseStatement()
	if err != nil {
		return nil, err
	}
	return &ast.If{Cond: cond, Then: []ast.Stmt{body}}, nil
}

func (p *parser) parseNotify() (ast.Stmt, error) {
	if t := p.peek(); !p.softIdent(t, "NOTIFY") {
		return nil, p.errf("expected NOTIFY, found %s", p.describe(t))
	}
	p.next()
	msg, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	return &ast.Notify{Message: msg}, nil
}

func (p *parser) parseVerifyAuditLog() (ast.Stmt, error) {
	if t := p.peek(); !p.softIdent(t, "VERIFY") {
		return nil, p.errf("expected VERIFY, found %s", p.describe(t))
	}
	p.next()
	// AUDIT is reserved (audit-expression DDL); LOG is an ordinary
	// identifier.
	if err := p.expectKeyword(lexer.KwAudit); err != nil {
		return nil, err
	}
	if t := p.peek(); !p.softIdent(t, "LOG") {
		return nil, p.errf("expected LOG after VERIFY AUDIT, found %s", p.describe(t))
	}
	p.next()
	return &ast.VerifyAuditLog{}, nil
}
