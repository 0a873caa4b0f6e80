package engine

import (
	"fmt"
	"strings"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/core"
	"auditdb/internal/exec"
	"auditdb/internal/obs"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// analyzeSink is the audit operator's sink under EXPLAIN ANALYZE: it
// performs the same sensitive-ID membership probe a real execution
// would (so probe/hit counts are faithful) but records nothing into
// ACCESSED state — EXPLAIN ANALYZE must be side-effect-free: no
// trigger fires and no audit trail is written. One sink belongs to one
// audit operator (plan node), so counters attribute per node even with
// several operators for the same expression (self-joins, subqueries).
type analyzeSink struct {
	expr     *core.AuditExpression
	st       *obs.NodeStats
	distinct map[string]struct{}
}

// Observe implements plan.AuditSink.
func (s *analyzeSink) Observe(v value.Value) {
	s.st.Probes++
	if !s.expr.Contains(v) {
		return
	}
	s.st.Hits++
	k := value.KeyOf(v)
	if _, dup := s.distinct[k]; !dup {
		s.distinct[k] = struct{}{}
		s.st.DistinctIDs++
	}
}

// ObserveBatch implements plan.BatchAuditSink so the vectorized audit
// iterator keeps its batch path under ANALYZE.
func (s *analyzeSink) ObserveBatch(vs []value.Value) {
	for _, v := range vs {
		s.Observe(v)
	}
}

// analyzeAuditSinks replaces every audit operator's probe sink with a
// per-node analyzeSink bound to the collector, in the main tree and in
// every (nested) subquery block.
func analyzeAuditSinks(root plan.Node, az *exec.Analyze) {
	plan.Walk(root, func(n plan.Node) {
		a, ok := n.(*plan.Audit)
		if !ok {
			return
		}
		if p, ok := a.Sink.(*core.Probe); ok {
			a.Sink = &analyzeSink{expr: p.Expr, st: az.Node(a), distinct: make(map[string]struct{})}
		}
	})
	plan.Subplans(root, func(sq *plan.Subquery) {
		analyzeAuditSinks(sq.Plan, az)
	})
}

// runExplainAnalyze executes the query for real — same plan, same
// optimization, same audit-operator placement — with every iterator
// wrapped in a counting shim, then reports the plan tree annotated
// with observed rows, batches, wall time, and per-audit-operator
// probe/hit/distinct-ID counts. It deliberately never fires ON ACCESS
// triggers and never persists ACCESSED state; the only engine counters
// it moves are statements and rows_scanned.
func (e *Engine) runExplainAnalyze(s *ast.Explain, sql string, env *actionEnv) (*Result, error) {
	start := time.Now()
	k := e.sessionOf(env).planKnobs()
	c, err := e.compile(s.Query, env, k)
	if err != nil {
		return nil, err
	}
	// The compiled plan's probes never receive a record: every one is
	// swapped for an analyzeSink.
	n := c.root
	az := exec.NewAnalyze()
	analyzeAuditSinks(n, az)

	ctx := e.execCtx(env, sql)
	ctx.Workers = k.workers
	ctx.Analyze = az
	rows, err := exec.Run(n, ctx)
	e.stats.RowsScanned.Add(ctx.Stats.RowsScanned.Load())
	if err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(exec.RenderAnalyze(n, az), "\n"), "\n") {
		res.Rows = append(res.Rows, value.Row{value.NewString(line)})
	}
	skipped := ctx.Stats.ChunksSkippedFilter.Load() + ctx.Stats.ChunksSkippedAudit.Load()
	res.Rows = append(res.Rows, value.Row{value.NewString(fmt.Sprintf(
		"Execution: rows=%d rows_scanned=%d chunks=%d/%d time=%s",
		len(rows), ctx.Stats.RowsScanned.Load(), skipped, ctx.Stats.ChunksScanned.Load(),
		elapsed.Round(time.Microsecond)))})
	return res, nil
}

// ExplainAnalyze executes a query under EXPLAIN ANALYZE
// instrumentation and returns the annotated plan report as text.
func (e *Engine) ExplainAnalyze(sql string) (string, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return "", err
	}
	res, err := e.runExplainAnalyze(&ast.Explain{Query: sel, Analyze: true}, sql, e.defSess.rootEnv())
	if err != nil {
		return "", err
	}
	var b strings.Builder
	for _, row := range res.Rows {
		b.WriteString(row[0].S)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
