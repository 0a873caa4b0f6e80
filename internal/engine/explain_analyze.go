package engine

import (
	"fmt"
	"strings"
	"time"

	"auditdb/internal/ast"
	"auditdb/internal/exec"
	"auditdb/internal/parser"
	"auditdb/internal/value"
)

// runExplainAnalyze executes the query for real — same plan, same
// optimization, same audit-operator placement, same operator instance
// and run routine as the statement itself, timed — then reports the
// plan tree annotated with each operator's record: rows, batches, wall
// time, and per-audit-operator probes and hits, with distinct_ids the
// run's ACCESSED size. It is a statement in the record: its compile is
// charged to the plan phase and its run to the exec phase, and its
// counters fold like a SELECT's. The plan's probes record into a
// throwaway ACCESSED state, so it never fires ON ACCESS triggers,
// records nothing, and moves neither queries, rows_audited,
// triggers_fired nor the placement counters.
func (e *Engine) runExplainAnalyze(s *ast.Explain, sql string, env *actionEnv) (*Result, error) {
	sess := e.sessionOf(env)
	k := sess.planKnobs()
	start := time.Now()
	c, err := e.compile(s.Query, env, k)
	if err != nil {
		return nil, err
	}
	r := &sess.rec
	r.AddSpan(notePlan(r, start, time.Since(start), "miss"), "optimize", c.optStart, c.optDur)
	acc := c.record()
	pe := &planEntry{compiled: c, knobs: k}
	rows, elapsed, err := e.run(pe, sql, env, true)
	if err != nil {
		return nil, err
	}

	res := &Result{Columns: []string{"plan"}}
	for _, line := range strings.Split(strings.TrimRight(exec.RenderAnalyze(pe.inst, acc.Len), "\n"), "\n") {
		res.Rows = append(res.Rows, value.Row{value.NewString(line)})
	}
	t := pe.inst.Totals()
	res.Rows = append(res.Rows, value.Row{value.NewString(fmt.Sprintf(
		"Execution: rows=%d rows_scanned=%d chunks=%d/%d time=%s",
		len(rows), t.RowsScanned, t.ChunksSkippedFilter+t.ChunksSkippedAudit, t.ChunksScanned,
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
