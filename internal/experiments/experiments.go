// Package experiments regenerates every table and figure of the
// paper's evaluation (§V) against the Go reproduction: the
// micro-benchmark false-positive and overhead sweeps (Figures 6 and
// 7), the audit-cardinality overhead sweep (Figure 8), the complex
// TPC-H query false-positive and overhead studies (Figures 9 and 10),
// and the static-analysis (Oracle FGA-style) comparison of §VI /
// Example 6.1. Both cmd/benchaudit and the repository's bench tests
// drive these entry points.
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"time"

	"auditdb/internal/ast"

	"auditdb/internal/core"
	"auditdb/internal/engine"
	"auditdb/internal/fga"
	"auditdb/internal/offline"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/tpch"
	"auditdb/internal/value"
)

// Workbench is a loaded TPC-H engine plus the paper's §V audit
// expression (all customers of one market segment).
type Workbench struct {
	Engine  *engine.Engine
	Data    *tpch.Data
	Auditor *offline.Auditor
	// Expr is the market-segment audit expression.
	Expr *core.AuditExpression
	// Params are the workload parameters.
	Params tpch.Params
}

// SegmentAuditName is the audit expression used across experiments.
const SegmentAuditName = "Audit_Customer"

// NewWorkbench generates TPC-H data at the scale factor, loads it and
// declares the segment audit expression.
func NewWorkbench(sf float64) (*Workbench, error) {
	e, d, err := tpch.NewEngine(tpch.Config{SF: sf})
	if err != nil {
		return nil, err
	}
	p := tpch.DefaultParams()
	if _, err := e.Exec(tpch.AuditCustomerSegment(SegmentAuditName, p.Segment)); err != nil {
		return nil, err
	}
	e.SetAuditAll(true)
	ae, ok := e.Registry().Get(SegmentAuditName)
	if !ok {
		return nil, fmt.Errorf("audit expression not compiled")
	}
	// Ground truth for the figures is Definition 2.3 read literally:
	// the default auditor decides select-join shapes from an hcn-placed
	// lineage run, and "hcn == offline" must not be checked against
	// itself.
	aud := offline.New(e.Catalog(), e.Store())
	aud.NoSkip = true
	return &Workbench{
		Engine:  e,
		Data:    d,
		Auditor: aud,
		Expr:    ae,
		Params:  p,
	}, nil
}

// CutoffForSelectivity maps a desired o_orderdate predicate
// selectivity (fraction of orders selected) to the date literal of the
// micro query's "o_orderdate > $2" predicate. Order dates are uniform
// over the generator's span.
func CutoffForSelectivity(sel float64) string {
	const span = 2406 - 151 // generator's order-date span in days
	days := int64((1 - sel) * span)
	d, err := value.ParseDate("1992-01-01")
	if err != nil {
		panic(err)
	}
	return value.NewDate(d.Int() + days).String()
}

// runIDs executes the query under the given heuristic and returns the
// audit cardinality (0 when the plan carries no audit operator).
func (w *Workbench) runIDs(sql string, h core.Heuristic) (int, error) {
	w.Engine.SetHeuristic(h)
	r, err := w.Engine.Query(sql)
	if err != nil {
		return 0, err
	}
	return r.Accessed.Len(SegmentAuditName), nil
}

// pairedOverhead measures the relative execution-time overhead of the
// instrumented plan against the plain plan, and the rows its audit
// operators inspect per execution (the audit_probes delta of the
// instrumented warm-up run). Each measurement round runs both plans
// back to back — alternating which goes first to cancel warm-cache
// bias — and contributes one instr/plain time ratio. Machine-state
// drift hits both halves of a ratio almost equally, and the median of
// the per-round ratios shrugs off stray GC or scheduler pauses, which
// matters on shared/virtualized hardware.
func (w *Workbench) pairedOverhead(plain, instr plan.Node, sql string, minDur time.Duration) (float64, int64, error) {
	const minRounds = 15
	// Warm both paths.
	if _, err := w.Engine.DrainPlan(plain, sql); err != nil {
		return 0, 0, err
	}
	before := w.Engine.StatsSnapshot()["audit_probes"]
	if _, err := w.Engine.DrainPlan(instr, sql); err != nil {
		return 0, 0, err
	}
	probed := w.Engine.StatsSnapshot()["audit_probes"] - before
	runtime.GC()
	var ratios []float64
	start := time.Now()
	for round := 0; time.Since(start) < minDur || round < minRounds; round++ {
		first, second := plain, instr
		if round%2 == 1 {
			first, second = instr, plain
		}
		t0 := time.Now()
		if _, err := w.Engine.DrainPlan(first, sql); err != nil {
			return 0, 0, err
		}
		d1 := time.Since(t0)
		t0 = time.Now()
		if _, err := w.Engine.DrainPlan(second, sql); err != nil {
			return 0, 0, err
		}
		d2 := time.Since(t0)
		tPlain, tInstr := d1, d2
		if round%2 == 1 {
			tPlain, tInstr = d2, d1
		}
		if tPlain > 0 {
			ratios = append(ratios, float64(tInstr)/float64(tPlain))
		}
	}
	if len(ratios) == 0 {
		return 0, 0, fmt.Errorf("degenerate timing for %q", sql)
	}
	// Interquartile mean: drop the top and bottom quarter of ratios
	// (virtualized hosts show multi-x per-run swings), average the rest.
	sort.Float64s(ratios)
	lo, hi := len(ratios)/4, len(ratios)-len(ratios)/4
	sum := 0.0
	for _, r := range ratios[lo:hi] {
		sum += r
	}
	return 100 * (sum/float64(hi-lo) - 1), probed, nil
}

// OverheadPct measures the relative execution-time overhead of the
// instrumented plan for one query under the given heuristic, and the
// rows its audit operators inspect per execution.
func (w *Workbench) OverheadPct(sql string, h core.Heuristic, minDur time.Duration) (float64, int64, error) {
	w.Engine.SetHeuristic(h)
	plain, _, err := w.Engine.BuildQueryPlan(sql, false)
	if err != nil {
		return 0, 0, err
	}
	instr, _, err := w.Engine.BuildQueryPlan(sql, true)
	if err != nil {
		return 0, 0, err
	}
	return w.pairedOverhead(plain, instr, sql, minDur)
}

// ---- Figure 6: micro-benchmark false positives ----

// Fig6Point is one selectivity step of the Figure 6 sweep.
type Fig6Point struct {
	Selectivity float64
	// Offline is |accessedIDs| (ground truth).
	Offline int
	// Leaf and HCN are the heuristics' |auditIDs|.
	Leaf, HCN int
}

// Fig6 sweeps the orders-predicate selectivity and reports offline vs
// leaf-node vs hcn audit cardinalities for the micro join query
// (paper: leaf-node inflates as the join filters more; hcn matches
// offline exactly on this SJ query).
func (w *Workbench) Fig6(selectivities []float64, acctbal float64) ([]Fig6Point, error) {
	var out []Fig6Point
	for _, sel := range selectivities {
		sql := tpch.MicroJoinQuery(acctbal, CutoffForSelectivity(sel))
		leaf, err := w.runIDs(sql, core.LeafNode)
		if err != nil {
			return nil, err
		}
		hcn, err := w.runIDs(sql, core.HighestCommutativeNode)
		if err != nil {
			return nil, err
		}
		rep, err := w.Auditor.Audit(sql, w.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig6Point{
			Selectivity: sel,
			Offline:     len(rep.AccessedIDs),
			Leaf:        leaf,
			HCN:         hcn,
		})
	}
	return out, nil
}

// ---- Figure 7: micro-benchmark overheads ----

// Fig7Point is one selectivity step of the Figure 7 sweep. The *Pct
// fields are wall-clock overheads (noisy on shared hosts); the *Probed
// fields count rows inspected by the audit operators per execution — a
// deterministic proxy for the same cost, since the operator does O(1)
// work per observed row.
type Fig7Point struct {
	Selectivity float64
	LeafPct     float64
	HCNPct      float64
	LeafProbed  int64
	HCNProbed   int64
}

// Fig7 sweeps the orders-predicate selectivity and reports the
// relative overhead of leaf-node and hcn instrumentation on the micro
// join query.
func (w *Workbench) Fig7(selectivities []float64, acctbal float64, minDur time.Duration) ([]Fig7Point, error) {
	var out []Fig7Point
	for _, sel := range selectivities {
		sql := tpch.MicroJoinQuery(acctbal, CutoffForSelectivity(sel))
		leaf, leafProbed, err := w.OverheadPct(sql, core.LeafNode, minDur)
		if err != nil {
			return nil, err
		}
		hcn, hcnProbed, err := w.OverheadPct(sql, core.HighestCommutativeNode, minDur)
		if err != nil {
			return nil, err
		}
		out = append(out, Fig7Point{
			Selectivity: sel, LeafPct: leaf, HCNPct: hcn,
			LeafProbed: leafProbed, HCNProbed: hcnProbed,
		})
	}
	return out, nil
}

// ---- Figure 8: audit-expression cardinality ----

// Fig8Point is one cardinality step of the Figure 8 sweep. Probed is
// the rows the operator inspected — constant across the sweep, which
// is exactly why the paper's overhead stays flat: the probe is an O(1)
// hash lookup regardless of the sensitive set's size.
type Fig8Point struct {
	Cardinality int
	HCNPct      float64
	Probed      int64
}

// Fig8 fixes the micro query at the 40% selectivity point and sweeps
// the audit-expression cardinality from 1 up to the full customer
// table, reporting hcn overhead (paper: ~2% even at a million
// customers).
func (w *Workbench) Fig8(cards []int, minDur time.Duration) ([]Fig8Point, error) {
	sql := tpch.MicroJoinQuery(0, CutoffForSelectivity(0.4))
	var out []Fig8Point
	for i, card := range cards {
		name := fmt.Sprintf("Audit_Card_%d", i)
		if _, err := w.Engine.Exec(tpch.AuditCustomerRange(name, card)); err != nil {
			return nil, err
		}
		// Drop the segment expression's influence by auditing only the
		// cardinality expression: temporarily measure with both
		// present is wrong, so audit-all instruments every compiled
		// expression — remove the range one after measuring.
		pct, probed, err := w.overheadForOnly(name, sql, minDur)
		if _, derr := w.Engine.Exec("DROP AUDIT EXPRESSION " + name); derr != nil && err == nil {
			err = derr
		}
		if err != nil {
			return nil, err
		}
		out = append(out, Fig8Point{Cardinality: card, HCNPct: pct, Probed: probed})
	}
	return out, nil
}

// overheadForOnly measures hcn overhead with exactly one audit
// expression instrumented by temporarily suppressing the others, and
// reports the per-execution probe count alongside.
func (w *Workbench) overheadForOnly(name, sql string, minDur time.Duration) (float64, int64, error) {
	w.Engine.SetHeuristic(core.HighestCommutativeNode)
	plain, _, err := w.Engine.BuildQueryPlan(sql, false)
	if err != nil {
		return 0, 0, err
	}
	ae, ok := w.Engine.Registry().Get(name)
	if !ok {
		return 0, 0, fmt.Errorf("audit expression %s missing", name)
	}
	instr, _, err := w.Engine.BuildQueryPlan(sql, false)
	if err != nil {
		return 0, 0, err
	}
	instr = core.Instrument(instr, ae, &core.Probe{Expr: ae, Acc: core.NewAccessed()}, core.HighestCommutativeNode)
	return w.pairedOverhead(plain, instr, sql, minDur)
}

// ---- Figure 9: complex-query false positives ----

// Fig9Row is one TPC-H query's audit cardinalities.
type Fig9Row struct {
	Query   string
	Offline int
	HCN     int
	Leaf    int
	TopK    bool
}

// Fig9 compares offline accessedIDs with hcn and leaf-node auditIDs
// for the seven-query workload (paper: leaf-node huge because TPC-H
// queries have no customer predicates; hcn close to offline except the
// top-k query Q10).
func (w *Workbench) Fig9() ([]Fig9Row, error) {
	var out []Fig9Row
	for _, q := range tpch.Queries(w.Params) {
		leaf, err := w.runIDs(q.SQL, core.LeafNode)
		if err != nil {
			return nil, fmt.Errorf("%s leaf: %w", q.Name, err)
		}
		hcn, err := w.runIDs(q.SQL, core.HighestCommutativeNode)
		if err != nil {
			return nil, fmt.Errorf("%s hcn: %w", q.Name, err)
		}
		rep, err := w.Auditor.Audit(q.SQL, w.Expr)
		if err != nil {
			return nil, fmt.Errorf("%s offline: %w", q.Name, err)
		}
		out = append(out, Fig9Row{
			Query:   q.Name,
			Offline: len(rep.AccessedIDs),
			HCN:     hcn,
			Leaf:    leaf,
			TopK:    q.TopK,
		})
	}
	return out, nil
}

// ---- Figure 10: complex-query overheads ----

// Fig10Row is one TPC-H query's hcn overhead.
type Fig10Row struct {
	Query  string
	HCNPct float64
}

// Fig10 measures hcn instrumentation overhead per workload query
// (paper: around 1%, including the cost of flowing IDs with the rows).
func (w *Workbench) Fig10(minDur time.Duration) ([]Fig10Row, error) {
	var out []Fig10Row
	for _, q := range tpch.Queries(w.Params) {
		pct, _, err := w.OverheadPct(q.SQL, core.HighestCommutativeNode, minDur)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		out = append(out, Fig10Row{Query: q.Name, HCNPct: pct})
	}
	return out, nil
}

// ---- §VI / Example 6.1: static-analysis baseline ----

// FGARow compares the static analysis against the audit-operator
// approach for one query.
type FGARow struct {
	Query string
	// Flagged is the static-analysis verdict (true = "accessed").
	Flagged bool
	// HCN is the audit operator's cardinality; Offline is ground truth.
	HCN, Offline int
}

// FGAStudy runs the static-analysis baseline over the workload. With
// the audit expression on one market segment, only Q3 carries a
// customer predicate the analysis can reason about; every other query
// is flagged wholesale (the paper: FGA false-positives on all queries
// except Q3).
func (w *Workbench) FGAStudy() ([]FGARow, error) {
	analyzer := fga.New(w.Engine.Catalog())
	aeMeta, ok := w.Engine.Catalog().AuditExpr(SegmentAuditName)
	if !ok {
		return nil, fmt.Errorf("audit expression metadata missing")
	}
	// Recover the defining query from the catalog's stored DDL so the
	// analysis always sees the declaration, not the current workload
	// parameters.
	defStmt, err := parser.Parse(aeMeta.Definition)
	if err != nil {
		return nil, fmt.Errorf("re-parsing audit definition: %w", err)
	}
	defQuery := defStmt.(*ast.CreateAuditExpression).Query
	var out []FGARow
	for _, q := range tpch.Queries(w.Params) {
		sel, err := parser.ParseQuery(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.Name, err)
		}
		flagged := analyzer.Flagged(sel, aeMeta, defQuery)
		hcn, err := w.runIDs(q.SQL, core.HighestCommutativeNode)
		if err != nil {
			return nil, err
		}
		rep, err := w.Auditor.Audit(q.SQL, w.Expr)
		if err != nil {
			return nil, err
		}
		out = append(out, FGARow{Query: q.Name, Flagged: flagged, HCN: hcn, Offline: len(rep.AccessedIDs)})
	}
	return out, nil
}
