// Package offline implements the exact offline auditing system the
// paper assumes as its verifier of record (§II-B, §V): a tuple t is
// accessed by query Q iff Q(D) differs from Q(D - t) (Definition 2.3,
// applied per Definition 2.5 to the tuples matched by an audit
// expression).
//
// The auditor decides what it can from one instrumented run and defers
// the rest to the definition:
//
//   - Lineage. The run carries a lineage sink (a core.Probe over a
//     private ACCESSED state) on an audit operator placed by the
//     highest-commutative-node algorithm. For plan shapes where every
//     output row is owed to exactly the sensitive tuples that flowed
//     past the operator, membership in the lineage IS the verdict
//     (Classify is that rule, classify has the decision table and the
//     argument for each rule): no baseline, no re-execution. The
//     engine runs the same Classify at compile time to decide which
//     online ACCESSED sets are exact.
//   - Candidate pruning. Where the shape decides nothing, Claim 3.5
//     still does: the leaf-node heuristic's auditIDs are a superset of
//     accessedIDs, so only tuples flagged by a leaf-node instrumented
//     run need the deletion test; everything else is provably not
//     accessed.
//   - Tuple masking. For an undecided candidate, Q(D - t) is evaluated
//     by re-running Q with t hidden behind a storage visibility mask —
//     no real delete, no rollback, no past-state reconstruction. The
//     paper's offline systems rebuild past database states; we audit
//     the current state in place. Triage replays run on a live
//     engine, so a replay answers Definition 2.3 for the data as of
//     the replay, which can differ from the data the audited query
//     read when a write landed in between.
//
// Auditor.NoSkip turns the first point off: every leaf candidate gets
// its deletion test, which is Definition 2.3 read literally and the
// oracle the lineage rules are tested against.
package offline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"auditdb/internal/catalog"
	"auditdb/internal/core"
	"auditdb/internal/exec"
	"auditdb/internal/opt"
	"auditdb/internal/parser"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// Auditor computes exact accessedIDs for queries against one database.
type Auditor struct {
	cat   *catalog.Catalog
	store *storage.Store
	// Parallelism bounds the deletion-test worker pool; <= 0 uses
	// GOMAXPROCS. Background verifiers (triage) set 1 so an offline
	// audit never commandeers the host from foreground queries.
	Parallelism int
	// NoSkip forces the exact path everywhere: no chunk skipping (zone
	// maps and sensitive-ID sketches) in any execution the audit
	// performs, and no lineage decisions — a baseline run, a leaf
	// candidate run and one deletion test per candidate, Definition 2.3
	// to the letter. It is the oracle the equivalence and differential
	// tests compare the default auditor against, and the escape hatch.
	NoSkip bool
}

// New creates an offline auditor over the given catalog and store.
func New(cat *catalog.Catalog, store *storage.Store) *Auditor {
	return &Auditor{cat: cat, store: store}
}

// Why a candidate could not be decided from lineage and went to the
// deletion test (Report.DeferReasons keys). The first eight name plan
// shapes; ReasonVanished replaces the shape's reason for a candidate
// whose tuple is gone from the table by the time it would be masked.
const (
	ReasonDistinct   = "distinct"     // DISTINCT (rows or aggregate): duplicates absorb a deletion
	ReasonHaving     = "having"       // a filter above the aggregate can hide the changed group
	ReasonSubquery   = "subquery"     // rows seen in a subquery block need not influence the result
	ReasonSelfJoin   = "self-join"    // the sensitive table is scanned more than once
	ReasonOuterJoin  = "outer-join"   // a NULL-extended row can stand in for the deleted match
	ReasonAggNoCount = "agg-no-count" // no COUNT(*) reaches the output: a row may contribute nothing
	ReasonTopKMember = "topk-member"  // a value-identical row can slide into the vacated top-k slot
	ReasonVanished   = "vanished"     // reported accessed, to err on the safe side
	ReasonNonKey     = "non-key"      // PARTITION BY is not the sensitive table's primary key
	ReasonShape      = "shape"        // any other operator arrangement (nested blocks, LIMIT over GROUP BY, exchanges)
	ReasonNoSkip     = "noskip"       // Auditor.NoSkip: the caller asked for the literal definition
)

// Report is the outcome of auditing one query against one audit
// expression.
type Report struct {
	// AccessedIDs are the partition-by keys whose tuples influence the
	// query (Definition 2.5), sorted.
	AccessedIDs []value.Value
	// Candidates is how many sensitive IDs the instrumented run
	// observed and the audit therefore had to settle: the lineage on a
	// shape the classifier decides, the leaf superset (Claim 3.5)
	// otherwise. IDs the run never observed are not accessed and are
	// not counted. Candidates = Decided + DeletionTests +
	// DeferReasons[ReasonVanished].
	Candidates int
	// Decided counts the candidates settled by lineage alone.
	Decided int
	// DeletionTests counts the candidates settled by a masked
	// re-execution.
	DeletionTests int
	// DeferReasons says, per reason, how many candidates lineage could
	// not settle; nil when it settled them all.
	DeferReasons map[string]int
	// Executions counts full executions of the query: the instrumented
	// run, the baseline Q(D) when a deletion test needs one and the
	// instrumented run's own rows cannot serve, and the deletion tests.
	Executions int
	// RowsScanned totals the storage rows read across those executions
	// — the offline audit's actual I/O cost, for comparison against the
	// online audit operators' near-zero overhead (§V).
	RowsScanned int64
}

// Path names how the verdict was reached: "lineage" when the one
// instrumented run settled it, "deletion" when any candidate went to
// the deletion test (or vanished before it could).
func (r *Report) Path() string {
	if len(r.DeferReasons) == 0 {
		return "lineage"
	}
	return "deletion"
}

// Audit computes the exact accessed set of the query for the audit
// expression.
func (a *Auditor) Audit(sql string, ae *core.AuditExpression) (*Report, error) {
	return a.AuditContext(context.Background(), sql, ae)
}

// AuditContext is Audit with cancellation: background verification
// workers pass their drain context so an in-flight audit stops between
// deletion tests instead of running to completion at shutdown.
func (a *Auditor) AuditContext(ctx context.Context, sql string, ae *core.AuditExpression) (*Report, error) {
	sel, err := parser.ParseQuery(sql)
	if err != nil {
		return nil, err
	}
	env := &plan.Env{Catalog: a.cat}
	root, err := plan.Build(env, sel)
	if err != nil {
		return nil, err
	}
	root = opt.Optimize(root)
	return a.AuditPlanContext(ctx, root, ae)
}

// AuditPlan is Audit for an already-built plan. The plan must not be
// executed concurrently elsewhere.
func (a *Auditor) AuditPlan(root plan.Node, ae *core.AuditExpression) (*Report, error) {
	return a.AuditPlanContext(context.Background(), root, ae)
}

// AuditPlanContext is AuditPlan with cancellation; ctx is checked
// before each full execution of the query, so a cancelled audit
// returns promptly even when the candidate set is large.
func (a *Auditor) AuditPlanContext(ctx context.Context, root plan.Node, ae *core.AuditExpression) (*Report, error) {
	rep := &Report{}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	run := func(n plan.Node, mask *storage.Mask, keep, auditOnly bool) ([]value.Row, error) {
		rows, scanned, err := a.execute(n, mask, keep, auditOnly)
		rep.Executions++
		rep.RowsScanned += scanned
		return rows, err
	}

	// Baseline digest of Q(D): up front under NoSkip (the definition's
	// order of events), otherwise only once a deletion test needs it.
	var base uint64
	haveBase := false
	if a.NoSkip {
		rows, err := run(root, nil, true, false)
		if err != nil {
			return nil, err
		}
		base, haveBase = digest(rows, len(root.Schema())), true
	}

	p := a.prepare(root, ae)
	if p.plan == nil {
		// The plan never reads the sensitive table: nothing is accessed
		// by construction, no execution needed.
		return rep, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rows, err := run(p.plan, nil, p.rowsAreResult, p.auditOnly)
	if err != nil {
		return nil, err
	}
	candidates := p.sink.Acc.IDs(ae.Meta.Name)
	rep.Candidates = len(candidates)
	if p.reason == "" {
		rep.AccessedIDs, rep.Decided = candidates, len(candidates)
		return rep, nil
	}
	if len(candidates) == 0 {
		return rep, nil
	}
	rep.DeferReasons = map[string]int{}
	if !haveBase {
		if !p.rowsAreResult {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if rows, err = run(root, nil, true, false); err != nil {
				return nil, err
			}
		}
		base = digest(rows, len(root.Schema()))
	}

	// Map candidate IDs to their row IDs in the sensitive table.
	tbl, ok := a.store.Table(ae.Meta.SensitiveTable)
	if !ok {
		return nil, fmt.Errorf("sensitive table %q does not exist", ae.Meta.SensitiveTable)
	}
	keyOrd := ae.KeyOrdinal()
	rowOf := make(map[string]storage.RowID, len(candidates))
	want := make(map[string]value.Value, len(candidates))
	for _, id := range candidates {
		want[value.KeyOf(id)] = id
	}
	tbl.Snapshot(func(rid storage.RowID, row value.Row) bool {
		k := value.KeyOf(row[keyOrd])
		if _, ok := want[k]; ok {
			rowOf[k] = rid
		}
		return true
	})

	// Deletion test per candidate: digest(Q(D - t)) != digest(Q(D)).
	// Tests are independent read-only executions, so they run in
	// parallel across a small worker pool.
	type task struct {
		id  value.Value
		rid storage.RowID
	}
	tasks := make([]task, 0, len(want))
	for k, id := range want {
		rid, ok := rowOf[k]
		if !ok {
			// The tuple vanished since the query ran; treat it as
			// accessed so the report errs on the safe side.
			rep.AccessedIDs = append(rep.AccessedIDs, id)
			rep.DeferReasons[ReasonVanished]++
			continue
		}
		tasks = append(tasks, task{id: id, rid: rid})
	}
	if len(tasks) > 0 {
		rep.DeferReasons[p.reason] = len(tasks)
	}
	workers := a.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	var (
		mu      sync.Mutex
		firstEr error
		wg      sync.WaitGroup
		next    atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := ctx.Err(); err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				mask := storage.NewMask()
				mask.Hide(ae.Meta.SensitiveTable, t.rid)
				rows, scanned, err := a.execute(root, mask, true, false)
				mu.Lock()
				rep.Executions++
				rep.DeletionTests++
				rep.RowsScanned += scanned
				if err != nil {
					if firstEr == nil {
						firstEr = err
					}
				} else if digest(rows, len(root.Schema())) != base {
					rep.AccessedIDs = append(rep.AccessedIDs, t.id)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstEr != nil {
		return nil, firstEr
	}
	sort.Slice(rep.AccessedIDs, func(i, j int) bool {
		return value.Compare(rep.AccessedIDs[i], rep.AccessedIDs[j]) < 0
	})
	return rep, nil
}

// execute runs the plan once under an optional mask and returns its
// rows (nil unless keep) and the storage rows it read. auditOnly lets
// the scan kernel skip chunks whose sensitive-ID sketch refutes the
// watch set outright; it implies the rows are not wanted.
func (a *Auditor) execute(n plan.Node, mask *storage.Mask, keep, auditOnly bool) ([]value.Row, int64, error) {
	ctx := exec.NewCtx(a.store)
	ctx.Mask = mask
	ctx.NoSkip = a.NoSkip
	ctx.AuditOnly = auditOnly
	in := exec.NewInstance(n, ctx)
	var rows []value.Row
	var err error
	if keep {
		rows, err = in.Run()
	} else {
		_, err = in.Drain()
	}
	return rows, in.Totals().RowsScanned, err
}

// digest is an order-insensitive multiset digest of the first width
// columns of the rows (the lineage run of a top-k plan carries the key
// as a hidden trailing column). Order-insensitivity matters: removing
// a tuple must not read as a change merely because a hash join emitted
// rows in a different order. Queries whose row ORDER is semantically
// significant (ORDER BY ... LIMIT) are still handled correctly because
// a changed top-k membership changes the multiset.
func digest(rows []value.Row, width int) uint64 {
	var d uint64
	for _, row := range rows {
		// Sum of per-row hashes is commutative: multiset semantics.
		d += value.HashRow(row[:width])
	}
	return d ^ uint64(len(rows))<<1
}

// pass is the one instrumented run an audit starts with.
type pass struct {
	// plan is the instrumented clone; nil when the query never reads
	// the sensitive table.
	plan plan.Node
	// sink records the sensitive IDs reaching the audit operator into a
	// private ACCESSED state: the lineage of the rows flowing past it.
	sink *core.Probe
	// reason is empty when lineage decides every candidate (observed ⇔
	// accessed); otherwise it says why the observed IDs all need the
	// deletion test.
	reason string
	// rowsAreResult marks a run whose rows are Q(D) itself (plus hidden
	// trailing columns), so it doubles as the baseline.
	rowsAreResult bool
	// auditOnly: the rows are discarded and the plan is a single scan,
	// so chunks the sensitive-ID sketch refutes may be skipped outright
	// — they cannot change which IDs reach the sink (Claim 3.5 pruning
	// goes sublinear in table size on sparse watch sets). Joins and
	// self-joins re-read tables and keep probe-only elision.
	auditOnly bool
}

// prepare instruments a clone of the plan for the placement the rule
// needs: highest commutative node where Classify decides by lineage,
// the root for top-k, the leaves (the Claim 3.5 pass) where nothing is
// decided.
func (a *Auditor) prepare(root plan.Node, ae *core.AuditExpression) pass {
	scans, sensitive, subquery := census(root, ae.Meta.SensitiveTable)
	if sensitive == 0 {
		return pass{}
	}
	p := pass{sink: &core.Probe{Expr: ae, Acc: core.NewAccessed()}, reason: ReasonNoSkip}
	if !a.NoSkip {
		hcn := core.Instrument(plan.CloneNode(root), ae, p.sink, core.HighestCommutativeNode)
		switch p.reason = Classify(a.cat, hcn, ae); p.reason {
		case "", ReasonAggNoCount:
			p.plan = hcn
		case ReasonTopKMember:
			// Classify vouched for the path above the operator.
			p.plan, _ = core.HoistAudit(hcn)
			p.rowsAreResult = true
		}
	}
	if p.plan == nil {
		p.plan = core.Instrument(plan.CloneNode(root), ae, p.sink, core.LeafNode)
	}
	p.auditOnly = !a.NoSkip && !p.rowsAreResult && scans == 1 && !subquery
	return p
}

// Classify is the one rule that decides whether an audit operator's
// lineage is the Definition 2.3 answer. root is a plan instrumented
// with the highest-commutative-node placement, possibly for several
// expressions; Classify returns "" when the IDs reaching ae's operator
// are exactly the tuples of ae the query accesses — observed ⇔
// accessed — and otherwise the reason they must go to the deletion
// test. A plan that never reads ae's sensitive table observes nothing
// and accesses nothing, so it classifies "". The auditor reads the
// result to skip deletion tests; the engine reads it to count
// placement_exact and to sign triage verdicts without a replay.
func Classify(cat *catalog.Catalog, root plan.Node, ae *core.AuditExpression) string {
	_, sensitive, subquery := census(root, ae.Meta.SensitiveTable)
	if sensitive == 0 {
		return ""
	}
	if r := blockers(cat, root, ae, sensitive, subquery); r != "" {
		return r
	}
	return classify(root, ae.Meta.Name)
}

// census counts the plan's table scans, those of the sensitive table
// among them, and whether any expression holds a subquery block —
// subquery plans included.
func census(root plan.Node, sensitiveTable string) (scans, sensitive int, subquery bool) {
	plan.Walk(root, func(n plan.Node) {
		if s, ok := n.(*plan.Scan); ok {
			scans++
			if strings.EqualFold(s.Table, sensitiveTable) {
				sensitive++
			}
		}
	})
	plan.Subplans(root, func(sq *plan.Subquery) {
		sc, se, _ := census(sq.Plan, sensitiveTable)
		scans, sensitive, subquery = scans+sc, sensitive+se, true
	})
	return scans, sensitive, subquery
}

// blockers checks what no placement can fix: the reason every
// candidate must be deferred, or "" when classify should look at the
// operator arrangement.
func blockers(cat *catalog.Catalog, root plan.Node, ae *core.AuditExpression, sensitiveScans int, subquery bool) string {
	outer := false
	plan.Walk(root, func(n plan.Node) {
		if j, ok := n.(*plan.Join); ok && j.Kind == plan.JoinLeft {
			outer = true
		}
	})
	switch {
	case subquery:
		return ReasonSubquery
	case sensitiveScans > 1:
		return ReasonSelfJoin
	case outer:
		return ReasonOuterJoin
	}
	// Lineage is kept per partition-by key, the deletion test hides one
	// tuple: the two coincide only when the key identifies the tuple.
	meta, ok := cat.Table(ae.Meta.SensitiveTable)
	if !ok || len(meta.PrimaryKey) != 1 || meta.PrimaryKey[0] != ae.KeyOrdinal() {
		return ReasonNonKey
	}
	return ""
}

// classify is the decision table. It reads an HCN-instrumented plan
// that blockers let through (one scan of the sensitive table, hence
// one operator named name; no subquery block; inner joins only; the
// key is the primary key) and returns "" when the lineage at that
// operator is the verdict — observed ⇔ accessed — or the reason the
// observed IDs must go to the deletion test. Rules go by plan shape,
// never by statement text. Other expressions' operators pass every
// row through unchanged, so they are invisible to every rule, on the
// spine and in the block alike. Throughout, "the block" is what sits
// below the operator: scans, filters, inner joins, projections and
// sorts. Its output is a bag in which every row is owed to exactly one
// tuple of the sensitive table, and — scans read in heap order, joins
// emit in probe order, sorts are stable — deleting a tuple removes that
// tuple's rows from the sequence and moves nothing else.
//
//   - Select-join: only Project and Sort above the operator. Both map
//     rows one to one, so the result loses a row exactly when the
//     deleted tuple had one in the block's output: observed ⇔ accessed
//     (Theorem 3.7 read as an algorithm).
//   - Aggregate directly over the block, only Project and Sort above
//     it: a tuple with no row in the block leaves the aggregate's input
//     untouched. One with rows changes the COUNT(*) of each group it
//     fed, or removes the group — provided COUNT(*) is computed and
//     every Project above forwards it as a plain column. Without that
//     a row may contribute nothing (SUM of 0, a non-extreme MIN):
//     ReasonAggNoCount, and the lineage bounds the deletion tests.
//   - Top-k, one Limit with only Project and Sort around it: the caller
//     hoists the operator to the root, where it sees the rows that
//     survive the cut. A tuple with no row among them changes nothing:
//     the first k rows of the sequence minus its rows are the same
//     first k. One with a row there usually matters, but the row that
//     slides into the vacated slot can carry the same values:
//     ReasonTopKMember, at most k deletion tests.
//   - DISTINCT (rows or aggregates), a filter above the aggregate
//     (HAVING), and everything else decide nothing.
func classify(root plan.Node, name string) string {
	var above []plan.Node
	var audit *plan.Audit
	for n := root; audit == nil; {
		switch x := n.(type) {
		case *plan.Audit:
			if x.Name == name {
				audit = x
			}
			n = x.Child
		case *plan.Project, *plan.Sort, *plan.Limit, *plan.Aggregate, *plan.Filter, *plan.Distinct:
			above = append(above, n)
			n = n.Children()[0]
		default:
			// A join or an exchange above the operator, or no operator
			// on the spine at all: pull-up was stopped inside a nested
			// block, whose lineage is not the result's.
			return ReasonShape
		}
	}
	block := true
	plan.Walk(audit.Child, func(n plan.Node) {
		switch n.(type) {
		case *plan.Scan, *plan.Filter, *plan.Project, *plan.Sort, *plan.Join, *plan.Audit:
		default:
			block = false
		}
	})
	if !block {
		return ReasonShape
	}

	var agg *plan.Aggregate
	aggs, filterAt, limits := 0, -1, 0
	for i, n := range above {
		switch x := n.(type) {
		case *plan.Distinct:
			return ReasonDistinct
		case *plan.Aggregate:
			agg = x
			aggs++
		case *plan.Filter:
			filterAt = i
		case *plan.Limit:
			limits++
		}
	}
	if agg == nil {
		switch {
		case limits > 1:
			// The root shows what survives the last cut only: a tuple an
			// inner Limit admitted and an outer one dropped is absent
			// there, yet deleting it changes what the inner Limit admits.
			return ReasonShape
		case filterAt >= 0:
			// A filter pull-up could not pass sits over a projection
			// that dropped the key: the operator sees rows the filter
			// may yet discard.
			return ReasonShape
		case limits == 1:
			return ReasonTopKMember
		}
		return ""
	}
	if aggs > 1 || above[len(above)-1] != plan.Node(agg) || limits > 0 {
		return ReasonShape
	}
	if filterAt >= 0 {
		return ReasonHaving
	}
	count := -1
	for i, spec := range agg.Aggs {
		if spec.Distinct {
			return ReasonDistinct
		}
		if spec.Func == plan.AggCount && spec.Arg == nil {
			count = len(agg.GroupBy) + i
		}
	}
	// Follow COUNT(*) up to the result.
	for i := len(above) - 2; i >= 0 && count >= 0; i-- {
		if proj, ok := above[i].(*plan.Project); ok {
			at := -1
			for k, e := range proj.Exprs {
				if col, isCol := e.(*plan.Col); isCol && col.Idx == count {
					at = k
					break
				}
			}
			count = at
		}
	}
	if count < 0 {
		return ReasonAggNoCount
	}
	return ""
}
