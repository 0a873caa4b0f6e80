package exec

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"auditdb/internal/obs"
	"auditdb/internal/plan"
)

// Analyze collects per-operator execution statistics for EXPLAIN
// ANALYZE. When Ctx.Analyze is set, open wraps every operator in a
// counting shim and disables the scan–audit fusion so each plan node
// keeps its own operator (semantics are unchanged — fusion is purely
// physical). Stats are keyed by plan-node identity, so repeated
// executions of the same node (correlated subqueries) accumulate.
type Analyze struct {
	mu    sync.Mutex
	nodes map[plan.Node]*obs.NodeStats
	// workers keeps each parallel worker's folded record per node, in
	// merge order, so tracing can attribute rows and morsel claims to
	// individual workers after the exchange closes. Appended under mu by
	// the same once-per-worker fold that updates the shared record.
	workers map[plan.Node][]obs.NodeStats
}

// NewAnalyze returns an empty collector.
func NewAnalyze() *Analyze {
	return &Analyze{nodes: make(map[plan.Node]*obs.NodeStats)}
}

// Node returns the stats record for a plan node, creating it on first
// use. The engine uses it to attach audit-probe counts to Audit nodes.
func (a *Analyze) Node(n plan.Node) *obs.NodeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st, ok := a.nodes[n]
	if !ok {
		st = &obs.NodeStats{}
		a.nodes[n] = st
	}
	return st
}

// peek returns the stats record if the node ever executed.
func (a *Analyze) peek(n plan.Node) *obs.NodeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.nodes[n]
}

// Stats returns the collected record for n, or nil if the node never
// executed. Callers must not read it until execution has completed
// (for parallel plans, until the exchange's Close returned — that is
// the happens-before edge for the workers' folds).
func (a *Analyze) Stats(n plan.Node) *obs.NodeStats { return a.peek(n) }

// WorkerRuns returns one folded record per parallel worker that
// executed n (empty for serial nodes), in fold order. Same
// happens-before requirement as Stats.
func (a *Analyze) WorkerRuns(n plan.Node) []obs.NodeStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.workers[n]
}

// merge folds one operator instance's record into its node's shared
// record under the collector's lock — once per instance, at close, so
// parallel workers never contend on the hot path. A worker's record
// (Workers = 1) is also kept on its own for WorkerRuns. Only the
// counters analyzedIter owns are folded: probe counts are written by
// the engine's sinks.
func (a *Analyze) merge(n plan.Node, st *obs.NodeStats) {
	dst := a.Node(n)
	a.mu.Lock()
	defer a.mu.Unlock()
	dst.RowsOut += st.RowsOut
	dst.Batches += st.Batches
	dst.Wall += st.Wall
	dst.Morsels += st.Morsels
	dst.Workers += st.Workers
	dst.ChunksScanned += st.ChunksScanned
	dst.ChunksSkipped += st.ChunksSkipped
	if st.Workers == 0 {
		return
	}
	if a.workers == nil {
		a.workers = make(map[plan.Node][]obs.NodeStats)
	}
	a.workers[n] = append(a.workers[n], *st)
}

// analyzedIter counts rows, batches, and wall time through one
// operator, serial or inside a worker's fragment, into a private
// record that folds into the node's shared record exactly once, at
// Close — which, for a fragment, the exchange operator guarantees
// happens before the query's EXPLAIN ANALYZE output renders. A scan
// kernel's chunk and morsel-claim counters are harvested at the same
// moment.
type analyzedIter struct {
	child  Iterator
	az     *Analyze
	node   plan.Node
	worker bool
	st     obs.NodeStats
	closed bool
}

func (it *analyzedIter) reset() error {
	it.st, it.closed = obs.NodeStats{}, false
	return it.child.reset()
}

func (it *analyzedIter) NextBatch(b *Batch) (int, error) {
	start := time.Now()
	n, err := it.child.NextBatch(b)
	it.st.Wall += time.Since(start)
	if n > 0 {
		it.st.Batches++
		it.st.RowsOut += int64(n)
	}
	return n, err
}

func (it *analyzedIter) Close() {
	if it.closed {
		return
	}
	it.closed = true
	it.child.Close()
	if k, ok := it.child.(*scanKernel); ok {
		it.st.Morsels = k.morsels
		it.st.ChunksScanned = k.chunksScanned
		it.st.ChunksSkipped = k.chunksSkipFilter + k.chunksSkipAudit
	}
	if it.worker {
		it.st.Workers = 1
	}
	it.az.merge(it.node, &it.st)
}

// RenderAnalyze renders the plan tree with each operator's observed
// counters, in the same indented shape as plan.Explain. Subquery
// blocks referenced by a node's expressions are rendered beneath it
// under a "Subquery" marker. Operators that never executed (e.g. a
// subquery short-circuited away) say so.
func RenderAnalyze(root plan.Node, a *Analyze) string {
	var b strings.Builder
	renderAnalyze(&b, root, a, 0)
	return b.String()
}

func renderAnalyze(b *strings.Builder, n plan.Node, a *Analyze, depth int) {
	indent := strings.Repeat("  ", depth)
	b.WriteString(indent)
	b.WriteString(n.Label())
	if st := a.peek(n); st != nil {
		fmt.Fprintf(b, "  (rows=%d batches=%d time=%s", st.RowsOut, st.Batches, st.Wall.Round(time.Microsecond))
		if _, ok := n.(*plan.Audit); ok {
			fmt.Fprintf(b, " probes=%d hits=%d distinct_ids=%d", st.Probes, st.Hits, st.DistinctIDs)
		}
		if st.Workers > 0 {
			fmt.Fprintf(b, " workers=%d", st.Workers)
		}
		if st.Morsels > 0 {
			fmt.Fprintf(b, " morsels=%d", st.Morsels)
		}
		if st.ChunksScanned+st.ChunksSkipped > 0 {
			fmt.Fprintf(b, " chunks=%d/%d", st.ChunksSkipped, st.ChunksScanned)
		}
		b.WriteString(")")
	} else {
		b.WriteString("  (never executed)")
	}
	b.WriteByte('\n')
	for _, c := range n.Children() {
		renderAnalyze(b, c, a, depth+1)
	}
	plan.WalkNodeExprs(n, func(e plan.Expr) {
		if sq, ok := e.(*plan.Subquery); ok {
			b.WriteString(strings.Repeat("  ", depth+1))
			b.WriteString("Subquery\n")
			renderAnalyze(b, sq.Plan, a, depth+2)
		}
	})
}
