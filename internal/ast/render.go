package ast

import (
	"fmt"
	"strings"

	"auditdb/internal/lexer"
)

// Ident renders an identifier so the parser reads it back as the same
// name: a reserved word, or a name that does not scan as one bare
// identifier, is double-quoted.
func Ident(name string) string {
	var s lexer.Scanner
	s.Init(name)
	if s.Scan() == lexer.TokIdent && s.Pos == 0 && s.End == len(name) {
		return name
	}
	return `"` + name + `"`
}

// qualifiedName renders a possibly dotted name (a system relation's
// sys.traces) one Ident per part.
func qualifiedName(name string) string {
	parts := strings.Split(name, ".")
	for i, p := range parts {
		parts[i] = Ident(p)
	}
	return strings.Join(parts, ".")
}

// RenderSelect reconstructs parseable SQL text for a query block. The
// engine uses it to store canonical single-statement DDL text in the
// catalog (dump/restore, static analysis) regardless of how the
// statement arrived (e.g. inside a multi-statement script).
func RenderSelect(s *Select) string {
	if s == nil {
		return "<nil select>"
	}
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Distinct {
		b.WriteString("DISTINCT ")
	}
	for i, item := range s.Items {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case item.Star && item.StarTable != "":
			b.WriteString(Ident(item.StarTable) + ".*")
		case item.Star:
			b.WriteString("*")
		default:
			b.WriteString(item.Expr.String())
			if item.Alias != "" {
				b.WriteString(" AS " + Ident(item.Alias))
			}
		}
	}
	if len(s.From) > 0 {
		b.WriteString(" FROM ")
		for i, ref := range s.From {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(renderTableRef(ref))
		}
	}
	if s.Where != nil {
		b.WriteString(" WHERE " + s.Where.String())
	}
	if len(s.GroupBy) > 0 {
		parts := make([]string, len(s.GroupBy))
		for i, g := range s.GroupBy {
			parts[i] = g.String()
		}
		b.WriteString(" GROUP BY " + strings.Join(parts, ", "))
	}
	if s.Having != nil {
		b.WriteString(" HAVING " + s.Having.String())
	}
	if len(s.OrderBy) > 0 {
		parts := make([]string, len(s.OrderBy))
		for i, o := range s.OrderBy {
			parts[i] = o.Expr.String()
			if o.Desc {
				parts[i] += " DESC"
			}
		}
		b.WriteString(" ORDER BY " + strings.Join(parts, ", "))
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

func renderTableRef(ref TableRef) string {
	switch r := ref.(type) {
	case *BaseTable:
		if r.Alias != "" && !strings.EqualFold(r.Alias, r.Name) {
			return qualifiedName(r.Name) + " " + Ident(r.Alias)
		}
		return qualifiedName(r.Name)
	case *JoinRef:
		out := renderTableRef(r.Left) + " " + r.Kind.String() + " " + renderTableRef(r.Right)
		if r.On != nil {
			out += " ON " + r.On.String()
		}
		return out
	case *SubqueryRef:
		return "(" + RenderSelect(r.Sub) + ") AS " + Ident(r.Alias)
	default:
		return "<?>"
	}
}

// RenderAuditExpression reconstructs the CREATE AUDIT EXPRESSION DDL.
func RenderAuditExpression(s *CreateAuditExpression) string {
	out := fmt.Sprintf("CREATE AUDIT EXPRESSION %s AS %s FOR SENSITIVE TABLE %s PARTITION BY %s",
		Ident(s.Name), RenderSelect(s.Query), Ident(s.SensitiveTable), Ident(s.PartitionBy))
	if s.Priority != 0 {
		out += fmt.Sprintf(" PRIORITY %d", s.Priority)
	}
	return out
}
