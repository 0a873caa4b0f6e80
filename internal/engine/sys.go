package engine

import (
	"maps"
	"slices"

	"auditdb/internal/exec"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// The system relations are the engine's own answers (retained traces,
// the triage queue, recent verdicts) read by SELECT, so they can be
// filtered, joined and put in a view. Like ACCESSED, each is a
// transient relation: the plan reads it through a ValuesScan, and every
// run binds a fresh snapshot of it, so a cached or shared plan never
// serves stale rows. No DML or DDL takes a dotted name, and the catalog
// does not know them, so an audit expression cannot read them.
var sysSchemas = map[string]plan.Schema{
	"sys.traces":      sysSchema("qid", "user", "elapsed_us", "sampled", "spans", "error", "sql"),
	"sys.spans":       sysSchema("qid", "trace"),
	"sys.audit_queue": sysSchema("priority", "user", "expression", "qid", "audit_seq", "ids", "sql"),
	"sys.verdicts":    sysSchema("seq", "audit_seq", "outcome", "priority", "user", "expression", "qid", "suspicious", "elapsed_us"),
}

// sysSchema types the named columns: int8, except the text columns and
// sampled (bool).
func sysSchema(cols ...string) plan.Schema {
	s := make(plan.Schema, len(cols))
	for i, c := range cols {
		s[i] = plan.ColInfo{Name: c, Kind: value.KindInt}
		switch c {
		case "user", "error", "sql", "trace", "expression", "outcome":
			s[i].Kind = value.KindString
		case "sampled":
			s[i].Kind = value.KindBool
		}
	}
	return s
}

// sysReads lists the system relations a plan reads, subqueries
// included; nil when it reads none.
func sysReads(root plan.Node) []string {
	var names []string
	plan.Walk(root, func(n plan.Node) {
		if v, ok := n.(*plan.ValuesScan); ok && sysSchemas[v.Name] != nil && !slices.Contains(names, v.Name) {
			names = append(names, v.Name)
		}
	})
	plan.Subplans(root, func(sq *plan.Subquery) { names = append(names, sysReads(sq.Plan)...) })
	return names
}

// bindSys binds a fresh snapshot of each named system relation beside
// the run's own transient relations (ACCESSED, NEW/OLD).
func (e *Engine) bindSys(ctx *exec.Ctx, names []string) {
	m := make(map[string][]value.Row, len(ctx.Extra)+len(names))
	maps.Copy(m, ctx.Extra)
	for _, name := range names {
		m[name] = e.sysSnapshot(name)
	}
	ctx.Extra = m
}

// bindSysExpr binds the system relations the subqueries of a
// standalone expression (IF, NOTIFY, INSERT values) read.
func (e *Engine) bindSysExpr(ctx *exec.Ctx, x plan.Expr) {
	plan.WalkExprTree(x, func(x plan.Expr) {
		if sq, ok := x.(*plan.Subquery); ok {
			if names := sysReads(sq.Plan); names != nil {
				e.bindSys(ctx, names)
			}
		}
	})
}

// sysSnapshot returns the current rows of one system relation.
func (e *Engine) sysSnapshot(name string) []value.Row {
	var rows []value.Row
	switch name {
	case "sys.traces": // newest first
		for _, t := range e.traceRing.Snapshot() {
			rows = append(rows, value.Row{
				value.NewInt(int64(t.QID)),
				value.NewString(t.User),
				value.NewInt(t.Elapsed / 1000),
				value.NewBool(t.Sampled),
				value.NewInt(int64(len(t.Spans))),
				value.NewString(t.Err),
				value.NewString(t.SQL),
			})
		}
	case "sys.spans":
		// Oldest trace first, so a firing's statement trace precedes the
		// triage.verify trace filed later under its qid.
		snap := e.traceRing.Snapshot()
		for i := len(snap) - 1; i >= 0; i-- {
			qid := value.NewInt(int64(snap[i].QID))
			for _, line := range snap[i].Render() {
				rows = append(rows, value.Row{qid, value.NewString(line)})
			}
		}
	case "sys.audit_queue": // in service order
		for _, ev := range e.triage.Snapshot() {
			rows = append(rows, value.Row{
				value.NewInt(int64(ev.Priority)),
				value.NewString(ev.User),
				value.NewString(ev.Expr),
				value.NewInt(int64(ev.QID)),
				value.NewInt(int64(ev.AuditSeq)),
				value.NewInt(int64(ev.NumIDs)),
				value.NewString(ev.SQL),
			})
		}
	case "sys.verdicts":
		// The recent-verdict ring, newest first; the durable record is the
		// audit chain (VERIFY AUDIT LOG).
		for _, v := range e.triage.Verdicts() {
			rows = append(rows, value.Row{
				value.NewInt(int64(v.ChainSeq)),
				value.NewInt(int64(v.AuditSeq)),
				value.NewString(v.Outcome),
				value.NewInt(int64(v.Priority)),
				value.NewString(v.User),
				value.NewString(v.Expr),
				value.NewInt(int64(v.QID)),
				value.NewInt(int64(v.Suspicious)),
				value.NewInt(v.ElapsedNanos / 1000),
			})
		}
	}
	return rows
}
