package engine

import (
	"fmt"

	"auditdb/internal/ast"
	"auditdb/internal/lexer"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// Prepared is a parsed statement with positional ? parameters. Each
// Run binds a fresh parameter vector, so a Prepared is safe to reuse
// (parsing happens once; planning reflects the catalog at run time,
// which keeps audit instrumentation current).
//
// A plain SELECT is additionally normalized once at prepare time; each
// Run then goes through the engine-wide canonical plan cache with the
// user's parameters spliced into the precomputed slot vector, skipping
// normalization and parsing alike.
type Prepared struct {
	sess   *Session
	stmt   ast.Stmt
	sql    string
	params int

	// norm is the canonical form captured at prepare time; nil when the
	// statement is not a plain SELECT the canonical cache can serve.
	norm *lexer.Norm
}

// Prepare parses a single statement containing ? placeholders, bound
// to the default session. Use Session.Prepare for per-user statements.
func (e *Engine) Prepare(sql string) (*Prepared, error) {
	return prepare(e.defSess, sql)
}

func prepare(sess *Session, sql string) (*Prepared, error) {
	stmt, err := parser.Parse(sql)
	if err != nil {
		return nil, err
	}
	n, err := parser.CountParams(sql)
	if err != nil {
		return nil, err
	}
	p := &Prepared{sess: sess, stmt: stmt, sql: sql, params: n}
	if _, isSel := stmt.(*ast.Select); isSel {
		var norm lexer.Norm
		if lexer.Normalize(sql, &norm) && norm.NUser == n {
			// Private copies: the Norm's slices are scan scratch.
			p.norm = &lexer.Norm{
				Canonical: append([]byte(nil), norm.Canonical...),
				Vals:      append([]value.Value(nil), norm.Vals...),
				User:      append([]bool(nil), norm.User...),
				NUser:     norm.NUser,
			}
		}
	}
	return p, nil
}

// NumParams reports how many ? placeholders the statement declares.
func (p *Prepared) NumParams() int { return p.params }

// AST returns the parsed statement. Protocol front ends use it to
// classify the statement (command tags, row-returning or not) without
// re-parsing the SQL text.
func (p *Prepared) AST() ast.Stmt { return p.stmt }

// Describe plans the statement without executing it and reports its
// output schema: column names and value kinds in output order. A
// statement that returns no rows (DML, DDL, transaction control)
// reports nil columns and no error. Planning reflects the catalog at
// call time, so a Describe after DDL sees the new schema.
func (p *Prepared) Describe() ([]string, []value.Kind, error) {
	sel, ok := p.stmt.(*ast.Select)
	if !ok {
		return nil, nil, nil
	}
	n, err := plan.Build(p.sess.e.planEnv(p.sess.rootEnv()), sel)
	if err != nil {
		return nil, nil, err
	}
	sch := n.Schema()
	names := make([]string, len(sch))
	kinds := make([]value.Kind, len(sch))
	for i, c := range sch {
		names[i] = c.Name
		kinds[i] = c.Kind
	}
	return names, kinds, nil
}

// Run executes the statement with the given parameter values bound in
// source order.
func (p *Prepared) Run(params ...value.Value) (*Result, error) {
	s := p.sess
	return s.e.traced(s, p.sql, func() (*Result, error) {
		if len(params) != p.params {
			return nil, fmt.Errorf("statement expects %d parameters, got %d", p.params, len(params))
		}
		if err := s.checkOpen(); err != nil {
			return nil, err
		}
		env := s.rootEnv()
		env.params = params
		if p.norm != nil {
			if res, ok, err := s.e.runCanonSelect(p.sql, p.norm, env, true); ok {
				return res, err
			}
		}
		// The canonical cache has seen the text: just above, or at
		// prepare time when it could not normalize.
		env.canonTried = true
		return s.e.execStmt(p.stmt, p.sql, env)
	})
}
