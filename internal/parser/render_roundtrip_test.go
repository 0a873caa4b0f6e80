package parser

import (
	"testing"

	"auditdb/internal/ast"
)

// TestRenderParseRoundTrip: rendering a parsed query and re-parsing it
// yields a query that renders identically (fixed point after one
// round).
func TestRenderParseRoundTrip(t *testing.T) {
	queries := []string{
		"SELECT a, b AS bb FROM t WHERE a > 3",
		"SELECT DISTINCT x FROM t ORDER BY x DESC LIMIT 5",
		"SELECT p.* FROM (SELECT x FROM t) AS p",
		"SELECT a FROM t1 LEFT JOIN t2 ON t1.x = t2.x WHERE t2.y IS NOT NULL",
		"SELECT g, COUNT(*) FROM t GROUP BY g HAVING COUNT(*) > 1",
		"SELECT CASE WHEN a > 1 THEN 'hi' ELSE 'lo' END FROM t",
		"SELECT a FROM t WHERE b IN (1, 2) AND c BETWEEN 0 AND 9 AND d LIKE 'x%'",
		"SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
		"SELECT a FROM t WHERE x IN (SELECT x FROM u) AND y = (SELECT MAX(y) FROM u)",
		"SELECT a FROM t WHERE d >= DATE '1995-01-01'",
		"SELECT s.trace FROM sys.spans s JOIN sys.traces ON s.qid = traces.qid WHERE s.qid = 5",
	}
	for _, q := range queries {
		first, err := ParseQuery(q)
		if err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
		rendered := ast.RenderSelect(first)
		second, err := ParseQuery(rendered)
		if err != nil {
			t.Fatalf("re-parse of rendered %q failed: %v\nrendered: %s", q, err, rendered)
		}
		again := ast.RenderSelect(second)
		if rendered != again {
			t.Errorf("render not a fixed point:\n 1st: %s\n 2nd: %s", rendered, again)
		}
	}
}
