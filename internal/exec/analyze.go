package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"auditdb/internal/obs"
	"auditdb/internal/plan"
)

// profile is an instance's records: one obs.NodeStats per plan node
// that ran under it, subquery blocks included, created with the node's
// first operator and zeroed at the start of every run. A plan node
// keeps its record however often its operator is rebuilt (a subquery's
// tree is built per evaluation), so repeated executions accumulate.
// Operators are built on the statement goroutine only (a parallel run
// builds its fragments before any worker starts), so nodes needs no
// lock; mu guards the worker folds. Plans are small, so nodes is a
// list searched in order, kept in the profile's own array up to eight
// nodes.
type profile struct {
	nodes  []nodeRecord
	inline [8]nodeRecord
	mu     sync.Mutex
	// workers keeps each parallel worker's record per node, in fold
	// order, so tracing can attribute rows and morsel claims to
	// individual workers.
	workers map[plan.Node][]obs.NodeStats
}

type nodeRecord struct {
	n  plan.Node
	st *obs.NodeStats
}

// find returns n's record, nil if n has none yet.
func (p *profile) find(n plan.Node) *obs.NodeStats {
	for _, r := range p.nodes {
		if r.n == n {
			return r.st
		}
	}
	return nil
}

// record returns n's record, making st (a fresh one when nil) n's
// record if it has none yet.
func (p *profile) record(n plan.Node, st *obs.NodeStats) *obs.NodeStats {
	if r := p.find(n); r != nil {
		return r
	}
	if st == nil {
		st = &obs.NodeStats{}
	}
	if p.nodes == nil {
		p.nodes = p.inline[:0]
	}
	p.nodes = append(p.nodes, nodeRecord{n, st})
	return st
}

// zero starts a run: every record and worker list empties in place.
func (p *profile) zero() {
	for _, r := range p.nodes {
		*r.st = obs.NodeStats{}
	}
	for n, ws := range p.workers {
		p.workers[n] = ws[:0]
	}
}

// fold adds one worker's record for n into n's record dst, and keeps
// it on its own for WorkerRuns — once per worker operator, at its
// Close, so workers never contend on the hot path.
func (p *profile) fold(n plan.Node, dst, st *obs.NodeStats) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst.Add(st)
	if p.workers == nil {
		p.workers = make(map[plan.Node][]obs.NodeStats)
	}
	p.workers[n] = append(p.workers[n], *st)
}

// counted is the wrapper every built operator runs under: it counts the
// operator's starts, rows and batches into st and, on a timed run, the
// wall clock of its reset and NextBatch calls — reset included, so the
// blocking work done there (join builds, aggregation, sorts) is charged
// to its operator. Operators with more to count (scan kernels, audit
// operators, filters, hash joins, the exchange) count into the same
// record. Serially st is the node's record — rec, unless an earlier
// build of the node already made one; inside a parallel fragment st is
// rec as the worker's private record, folded into the node's record
// (shared) at Close, which the exchange guarantees happens before the
// run returns.
type counted struct {
	child  Iterator
	ctx    *Ctx
	node   plan.Node
	st     *obs.NodeStats
	shared *obs.NodeStats // inside a parallel fragment only
	rec    obs.NodeStats
}

func newCounted(n plan.Node, ctx *Ctx, w *worker) *counted {
	if ctx.prof == nil {
		// Built outside an instance run (standalone expression
		// evaluation): the context keeps records of its own.
		ctx.prof = &profile{}
	}
	c := &counted{ctx: ctx, node: n}
	if w == nil {
		c.st = ctx.prof.record(n, &c.rec)
	} else {
		c.shared, c.st = ctx.prof.record(n, nil), &c.rec
	}
	return c
}

func (c *counted) reset() error {
	c.st.Runs++
	if !c.ctx.Timed {
		return c.child.reset()
	}
	start := time.Now()
	err := c.child.reset()
	c.st.Wall += time.Since(start)
	return err
}

func (c *counted) NextBatch(b *Batch) (int, error) {
	var start time.Time
	if c.ctx.Timed {
		start = time.Now()
	}
	n, err := c.child.NextBatch(b)
	if c.ctx.Timed {
		c.st.Wall += time.Since(start)
	}
	if n > 0 {
		c.st.Batches++
		c.st.RowsOut += int64(n)
	}
	return n, err
}

func (c *counted) Close() {
	c.child.Close()
	if c.shared != nil && c.rec.Runs > 0 {
		c.rec.Workers = 1
		c.ctx.prof.fold(c.node, c.shared, &c.rec)
		c.rec = obs.NodeStats{}
	}
}

// Stats returns the last run's record for n, or nil if n never
// executed in it.
func (in *Instance) Stats(n plan.Node) *obs.NodeStats {
	if st := in.prof.find(n); st != nil && st.Runs > 0 {
		return st
	}
	return nil
}

// WorkerRuns returns one record per parallel worker that executed n in
// the last run (empty for serial nodes), in fold order.
func (in *Instance) WorkerRuns(n plan.Node) []obs.NodeStats { return in.prof.workers[n] }

// Totals folds the last run's records into the statement's scan
// totals: rows read from storage, morsels claimed, chunks scanned and
// skipped by reason, rows whose predicate the interpreter evaluated,
// and audit probes. Only those fields are set.
func (in *Instance) Totals() obs.NodeStats {
	var t obs.NodeStats
	for _, r := range in.prof.nodes {
		st := r.st
		t.RowsScanned += st.RowsScanned
		t.Morsels += st.Morsels
		t.ChunksScanned += st.ChunksScanned
		t.ChunksSkippedFilter += st.ChunksSkippedFilter
		t.ChunksSkippedAudit += st.ChunksSkippedAudit
		t.PredInterpreted += st.PredInterpreted
		t.Probes += st.Probes
	}
	return t
}

// Op is one operator of an instance's plan, in render order: depth
// first, a node's children before the subquery blocks its expressions
// reference.
type Op struct {
	Node  plan.Node
	Label string
	// Parent is the index of the operator above, -1 for the root. A
	// subquery block's root has the referencing node as its parent.
	Parent   int
	Depth    int
	Subquery bool // the root of a subquery block
}

// Ops returns the instance's operators in render order, labelled. The
// list is built on first use and kept, so a reused instance renders
// and traces without relabelling its plan.
func (in *Instance) Ops() []Op {
	if in.ops == nil {
		in.ops = appendOps(nil, in.root, -1, 0, false)
	}
	return in.ops
}

func appendOps(ops []Op, n plan.Node, parent, depth int, sub bool) []Op {
	self := len(ops)
	ops = append(ops, Op{Node: n, Label: n.Label(), Parent: parent, Depth: depth, Subquery: sub})
	for _, c := range n.Children() {
		ops = appendOps(ops, c, self, depth+1, false)
	}
	plan.WalkNodeExprs(n, func(e plan.Expr) {
		if sq, ok := e.(*plan.Subquery); ok {
			ops = appendOps(ops, sq.Plan, self, depth+2, true)
		}
	})
	return ops
}

// RenderAnalyze renders the instance's plan tree with each operator's
// counters from its last run, in the same indented shape as
// plan.Explain. Subquery blocks referenced by a node's expressions are
// rendered beneath it under a "Subquery" marker. Operators that never
// executed (e.g. a subquery short-circuited away) say so. distinct
// gives an audit line's distinct_ids: the run's ACCESSED size for the
// operator's expression.
func RenderAnalyze(in *Instance, distinct func(expr string) int) string {
	var b strings.Builder
	for _, op := range in.Ops() {
		if op.Subquery {
			b.WriteString(strings.Repeat("  ", op.Depth-1))
			b.WriteString("Subquery\n")
		}
		b.WriteString(strings.Repeat("  ", op.Depth))
		b.WriteString(op.Label)
		st := in.Stats(op.Node)
		if st == nil {
			b.WriteString("  (never executed)\n")
			continue
		}
		fmt.Fprintf(&b, "  (rows=%d batches=%d time=%s", st.RowsOut, st.Batches, st.Wall.Round(time.Microsecond))
		if a, ok := op.Node.(*plan.Audit); ok {
			ids := 0
			if distinct != nil {
				ids = distinct(a.Name)
			}
			fmt.Fprintf(&b, " probes=%d hits=%d distinct_ids=%d", st.Probes, st.Hits, ids)
		}
		if st.Workers > 0 {
			fmt.Fprintf(&b, " workers=%d", st.Workers)
		}
		if st.Morsels > 0 {
			fmt.Fprintf(&b, " morsels=%d", st.Morsels)
		}
		if skipped := st.ChunksSkippedFilter + st.ChunksSkippedAudit; st.ChunksScanned+skipped > 0 {
			fmt.Fprintf(&b, " chunks=%d/%d", skipped, st.ChunksScanned)
		}
		if st.BuildLeft > 0 {
			b.WriteString(" build=left")
		}
		b.WriteString(")\n")
	}
	return b.String()
}
