// Package exec interprets logical plans with batch-at-a-time pull
// operators (one contract, NextBatch): scans with pushed predicates and
// visibility masks, hash and nested-loops joins, hash aggregation,
// sorting, limits, distinct, and the audit operator (a pass-through
// that feeds partition-by values to its sink, paper §IV-A.2). A plan's
// operator tree is an Instance: built once, reset for every run.
package exec

import (
	"fmt"

	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// Ctx is the execution context of one statement.
type Ctx struct {
	// Store provides table data.
	Store *storage.Store
	// Mask optionally hides rows (tuple-deletion re-execution for the
	// offline auditor). Nil hides nothing.
	Mask *storage.Mask
	// Eval is the expression evaluation context (session functions,
	// correlation stack). Run installs its RunSubquery callback.
	Eval *plan.EvalCtx
	// Extra supplies transient named relations (ACCESSED, NEW, OLD, the
	// sys.* relations); keys are lower-case.
	Extra map[string][]value.Row
	// Workers is the parallelism budget a Gather operator may spend
	// (<= 1 means serial; the planner normally decides this before the
	// executor ever sees the plan).
	Workers int
	// Timed makes the run read wall clocks into its operators' records
	// (a sampled statement, EXPLAIN ANALYZE). It is the only thing
	// observation changes: every run counts rows, batches, chunks and
	// probes through the same operators, fused or not, feeding the same
	// sinks.
	Timed bool
	// NoSkip disables chunk-level data skipping (SET skipping = off):
	// the scan kernels read every chunk and probe every row, the
	// byte-identical baseline the skipping paths are proven against.
	NoSkip bool
	// AuditOnly marks an execution whose result rows are discarded and
	// only the audit observations matter (the offline auditor's
	// candidate pass). Scan kernels may then skip chunks the
	// sensitive-ID sketch refutes outright instead of merely eliding
	// their probes. Never set for statements that return rows.
	AuditOnly bool

	// prof holds the records the run's operators count into: the
	// running instance's, shared by its subquery runs and worker
	// contexts.
	prof *profile
}

// NewCtx returns a context over the given store with a fresh
// evaluation context whose subquery runner is already installed, so
// standalone expression evaluation (trigger IF conditions, INSERT
// values) can run subplans too.
func NewCtx(store *storage.Store) *Ctx {
	ctx := &Ctx{Store: store}
	ctx.init()
	return ctx
}

// init fills in whatever a hand-assembled context left unset.
func (ctx *Ctx) init() {
	if ctx.Eval == nil {
		ctx.Eval = &plan.EvalCtx{}
	}
	if ctx.Eval.RunSubquery == nil {
		ctx.Eval.RunSubquery = func(sub plan.Node, _ *plan.EvalCtx) ([]value.Row, error) {
			return collect(sub, ctx)
		}
	}
}

// Iterator is the one operator contract: NextBatch fills b up to its
// request ceiling, publishes the rows as b.Rows and returns their
// count. 0 with a nil error means the operator is exhausted, and it
// keeps returning 0 if called again. A non-nil error ends the stream:
// nothing past the failing row is published, and consumers discard
// whatever the failing call reported.
//
// An operator runs any number of times. reset starts a run: it rewinds
// the operator and its inputs and re-derives from the context
// everything that is not plan shape (bound parameters and the
// constants compiled from them, the resolved table, mask and index
// candidates, the skipping switch); blocking operators consume their
// input here. Close ends a run, successful or not: it drops the row
// references the operator's buffers hold and any data-sized state past
// keepRows, and inside a parallel fragment folds the worker's records.
// reset always follows Close (or build), so a run that errored or
// stopped early leaves nothing behind.
type Iterator interface {
	NextBatch(b *Batch) (int, error)
	Close()
	reset() error
}

// Instance is a plan's operator tree, reusable across runs, and its
// records: one obs.NodeStats per plan node, subquery blocks included,
// that every run counts into and the next run zeroes. The first run
// builds the tree; every run, the first included, resets it before
// pulling and closes it after. Between runs the instance keeps only
// buffers, structure and the last run's records. It is not safe for
// concurrent or re-entrant use: the engine keeps one per
// session-private plan-cache entry.
type Instance struct {
	root plan.Node
	ctx  *Ctx
	prof profile
	ops  []Op        // Ops' list, built on first use
	it   Iterator    // nil until the first run builds it
	out  *Batch      // the root's pull batch
	rows []value.Row // Run's result scratch
}

// NewInstance returns an instance of plan n executing under ctx.
// Nothing is built until the first run.
func NewInstance(n plan.Node, ctx *Ctx) *Instance {
	ctx.init()
	return &Instance{root: n, ctx: ctx}
}

// Ctx returns the context every run of the instance executes under.
// The caller sets its per-execution fields (session functions,
// parameters, transient relations, skipping switch, worker budget,
// clock bit) before each run; the run zeroes the records itself and
// clears the evaluation context's subquery cache when it ends.
func (in *Instance) Ctx() *Ctx { return in.ctx }

// Run executes the instance once and materializes its result.
func (in *Instance) Run() ([]value.Row, error) {
	err := in.run(func(rows []value.Row) error {
		in.rows = append(in.rows, rows...)
		return nil
	})
	out := in.rows
	switch {
	case err != nil || len(out) == 0:
		out = nil
	case len(out) > keepRows:
		// A large result is handed over whole rather than copied; the
		// scratch would be dropped anyway.
		in.rows = nil
		return out, nil
	default:
		out = append([]value.Row(nil), out...)
	}
	in.rows = recycle(in.rows)
	return out, err
}

// Drain executes the instance once, discarding rows, and returns the
// row count. It exists for measurement and side-effect-only runs
// (audit probes fire as usual); the rows are never retained, so the
// garbage collector sees far less pressure than under Run.
func (in *Instance) Drain() (int, error) {
	count := 0
	err := in.run(func(rows []value.Row) error {
		count += len(rows)
		return nil
	})
	return count, err
}

// RunIDs is Run for a plan that reads one stored table through filters
// and projections only: an UPDATE's or DELETE's read. Beside the rows it
// returns, in step, the RowID each was read from, carried up the
// operator tree on the batches' row-ID lane.
func (in *Instance) RunIDs() ([]value.Row, []storage.RowID, error) {
	if !carriesIDs(in.root) {
		return nil, nil, fmt.Errorf("exec: plan %s cannot carry row IDs", in.root.Label())
	}
	if in.out == nil || in.out.ids == nil {
		in.out = NewBatch(batchSeed).withIDs()
	}
	var rows []value.Row
	var ids []storage.RowID
	err := in.run(func(batch []value.Row) error {
		rows = append(rows, batch...)
		ids = append(ids, in.out.ids[:len(batch)]...)
		return nil
	})
	return rows, ids, err
}

func (in *Instance) run(each func(rows []value.Row) error) error {
	in.ctx.prof = &in.prof
	in.prof.zero()
	// Uncorrelated subquery results are cached per evaluation context;
	// the next run must re-read current data, and an idle instance must
	// not pin the rows.
	defer in.ctx.Eval.ClearSubqueryCache()
	if in.it == nil {
		it, err := build(in.root, in.ctx, nil)
		if err != nil {
			return err
		}
		in.it = it
	}
	defer in.it.Close()
	if err := in.it.reset(); err != nil {
		return err
	}
	err := pull(in.it, &in.out, each)
	in.out.release()
	return err
}

// Run materializes the full result of a plan: an instance run once.
func Run(n plan.Node, ctx *Ctx) ([]value.Row, error) {
	return NewInstance(n, ctx).Run()
}

// carriesIDs reports whether n is a table scan under filters and
// projections only, the operators that keep the row-ID lane.
func carriesIDs(n plan.Node) bool {
	switch x := n.(type) {
	case *plan.Filter:
		return carriesIDs(x.Child)
	case *plan.Project:
		return carriesIDs(x.Child)
	}
	_, ok := n.(*plan.Scan)
	return ok
}

// collect runs a subtree once within an execution that is already
// under way (subqueries, parallel build sides); its operators count
// into the running instance's records.
func collect(n plan.Node, ctx *Ctx) ([]value.Row, error) {
	it, err := open(n, ctx, nil)
	if err != nil {
		return nil, err
	}
	defer it.Close()
	var b *Batch
	var out []value.Row
	err = pull(it, &b, func(rows []value.Row) error {
		out = append(out, rows...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// open builds a tree that runs once and resets it for that run: the
// parts of an execution that are built per run (subquery trees,
// parallel fragments). On a reset error the tree is closed.
func open(n plan.Node, ctx *Ctx, w *worker) (Iterator, error) {
	it, err := build(n, ctx, w)
	if err != nil {
		return nil, err
	}
	if err := it.reset(); err != nil {
		it.Close()
		return nil, err
	}
	return it, nil
}

// build is the one function that turns a plan node into an operator,
// wrapped in the counting every run does (counted). It only builds
// structure; storage and the execution's inputs are first read by
// reset. w is the worker whose pipeline fragment is being built (nil
// for serial execution); a fragment differs from the serial tree in
// three places only: its scans claim morsels from the run's shared
// source, its audit operators feed worker-local sinks, and its hash
// joins probe the run's shared build table.
func build(n plan.Node, ctx *Ctx, w *worker) (Iterator, error) {
	c := newCounted(n, ctx, w)
	var it Iterator
	var err error
	switch x := n.(type) {
	case *plan.Scan:
		it = buildScan(x, ctx, w, c.st)
	case *plan.Filter:
		if it, err = build(x.Child, ctx, w); err == nil {
			it = &filterIter{child: it, pred: newBatchPred(x.Pred), ctx: ctx, st: c.st}
		}
	case *plan.Project:
		if it, err = build(x.Child, ctx, w); err == nil {
			it = &projectIter{child: it, exprs: x.Exprs, ctx: ctx}
		}
	case *plan.Audit:
		it, err = buildAudit(x, ctx, w, c.st)
	case *plan.Join:
		it, err = buildJoin(x, ctx, w, c.st)
	default:
		// Everything else runs above the exchange, never inside a
		// fragment (the planner's fragmentOK admits only the cases above).
		if w != nil {
			return nil, fmt.Errorf("exec: operator %T cannot run inside a parallel fragment", n)
		}
		switch x := n.(type) {
		case *plan.ValuesScan:
			it = &valuesIter{name: x.Name, ctx: ctx}
		case *plan.Aggregate:
			it, err = buildAggregate(x, ctx)
		case *plan.Gather:
			it, err = buildGather(x, ctx, c.st)
		case *plan.Sort:
			it, err = buildSort(x, ctx)
		case *plan.Limit:
			if it, err = build(x.Child, ctx, nil); err == nil {
				topK(it, x.N)
				it = &limitIter{child: it, n: x.N}
			}
		case *plan.Distinct:
			if it, err = build(x.Child, ctx, nil); err == nil {
				it = &distinctIter{child: it}
			}
		default:
			err = fmt.Errorf("exec: unsupported plan node %T", n)
		}
	}
	if err != nil {
		return nil, err
	}
	c.child = it
	return c, nil
}

// buildAudit places an audit operator, counting into st. Leaf-placed
// ones fuse into the scan kernel: one batch pass applies the pushed
// predicate and the sensitive-ID probe without an extra operator
// boundary per row. Semantics match auditIter-over-scan exactly (the
// probe sees post-predicate rows); only the probe granularity changes.
// A fused operator still counts every node it stands for, so the Scan
// (and Project) under the Audit keep records of their own.
func buildAudit(x *plan.Audit, ctx *Ctx, w *worker, st *obs.NodeStats) (Iterator, error) {
	var sink plan.AuditObserver = x.Sink
	if w != nil {
		sink = w.sink(x.Sink)
	}
	fused := func(s *plan.Scan, idIdx int) Iterator {
		c := newCounted(s, ctx, w)
		k := buildScan(s, ctx, w, c.st)
		k.sink, k.idIdx, k.auditPruner, k.ast = sink, idIdx, x.Pruner, st
		c.child = k
		return c
	}
	if s, ok := x.Child.(*plan.Scan); ok {
		return fused(s, x.IDIdx), nil
	}
	// An audit operator hoisted just above a column-pruning Project
	// over the sensitive scan fuses too: the Project is 1:1, so the
	// probe sees the same multiset of key values either side of it.
	// The key ordinal is remapped through the projection.
	if pj, ok := x.Child.(*plan.Project); ok {
		if s, ok := pj.Child.(*plan.Scan); ok {
			if col, ok := projectedScanColumn(pj, x.IDIdx); ok {
				c := newCounted(pj, ctx, w)
				c.child = &projectIter{child: fused(s, col), exprs: pj.Exprs, ctx: ctx}
				return c, nil
			}
		}
	}
	child, err := build(x.Child, ctx, w)
	if err != nil {
		return nil, err
	}
	return &auditIter{child: child, idIdx: x.IDIdx, sink: sink, st: st}, nil
}

// ---- Scans ----

// scanIter iterates over an in-memory row slice: the output of
// aggregation and sort, and transient relations.
type scanIter struct {
	rows []value.Row
	pos  int
}

// scanKernel is the fused scan–filter–audit operator: it streams rows
// out of storage in bounded chunks (never materializing the table, on
// either the heap or the index-assisted path), applies the visibility
// mask and the pushed predicate, and — when a leaf audit operator was
// fused in — feeds surviving partition-by values to the sink one batch
// at a time.
type scanKernel struct {
	scan *plan.Scan
	ctx  *Ctx
	w    *worker        // the worker whose fragment this is; nil when serial
	pred batchPred      // the pushed predicate, evaluated a chunk at a time
	st   *obs.NodeStats // the Scan node's record

	// Fused audit probe (sink nil when not fused), the Audit node's
	// record it counts probes into, and the expression's sketch pruner;
	// whether the pruner applies is decided per run.
	sink        plan.AuditObserver
	ast         *obs.NodeStats
	idIdx       int
	auditPruner plan.SketchPruner

	// The run's access path (resolveScan): table, mask (nil when it
	// hides nothing in this table) and, on the index-assisted path, the
	// candidate row IDs, fetched chunk by chunk instead of up front.
	tbl    *storage.Table
	mask   *storage.Mask
	useIDs bool
	ids    []storage.RowID
	// Heap path: pos is the next heap slot, -1 once exhausted.
	pos   int
	idPos int

	// Morsel-driven mode (parallel scans): src is the shared claim
	// cursor; the kernel works one claimed window at a time —
	// [pos, morselEnd) heap positions, or [idPos, idEnd) offsets into
	// the shared ids slice — and claims the next window when it runs
	// dry.
	src       *morselSource
	morselEnd int
	idEnd     int

	// Chunk skipping (skip.go): compiled filter refutation terms, the
	// fused audit expression's sketch pruner, and the decide callback
	// handed to the pruned storage scans. chunkElide marks the current
	// chunk's probes as elided (counted as the Audit node's probes,
	// never presented to the sink); elidedRows accumulates until the
	// next flushAudit.
	// lastChunk keeps the per-chunk counters exact across mid-chunk
	// resumes.
	prune      []prunePred
	pruner     plan.SketchPruner
	decideFn   func(storage.ChunkInfo) bool
	chunkElide bool
	elidedRows int64
	lastChunk  int

	raw    []value.Row     // chunk read buffer, grown to the request ceiling
	rawIDs []storage.RowID // row IDs matching raw, for mask checks
	vals   []value.Value   // per-batch audit value scratch
}

// scanSource is the resolved access path of one scan: table, mask and
// — when the pushed predicate holds an equality a usable index covers —
// the candidate row IDs. A parallel run resolves it once and shares it
// (with the morsel cursor) across its workers, so every worker claims
// offsets into the same ids slice.
type scanSource struct {
	tbl  *storage.Table
	mask *storage.Mask // nil when the mask hides nothing in this table
	// useIDs is explicit because LookupEq can return an empty-but-usable
	// result (no matching rows), which must not fall back to a heap scan.
	useIDs bool
	ids    []storage.RowID
	src    *morselSource // nil for a serial scan
}

// resolveScan resolves s under ctx's bindings; index candidates are
// appended to ids.
func resolveScan(s *plan.Scan, ctx *Ctx, ids []storage.RowID) (scanSource, error) {
	tbl, ok := ctx.Store.Table(s.Table)
	if !ok {
		return scanSource{}, fmt.Errorf("exec: table %q does not exist", s.Table)
	}
	ss := scanSource{tbl: tbl, ids: ids}
	if ctx.Mask.HidesTable(s.Table) {
		ss.mask = ctx.Mask
	}
	// Index-assisted access path: if the pushed predicate contains an
	// equality between a column and a constant and the table has a
	// usable index, visit just the matching rows. The full predicate
	// still runs over them, so this is purely physical — which is why
	// audit cardinalities are independent of it (the paper's point
	// that false positives do not depend on physical operators).
	if s.Pushed != nil {
		if col, v, found := equalityProbe(s.Pushed, ctx); found {
			ss.ids, ss.useIDs = tbl.LookupEq(col, v, ids)
		}
	}
	return ss, nil
}

// buildScan builds a scan kernel, serial or morsel-driven, counting
// into st. The pushed predicate's fast path is compiled here, once; its
// constants are bound per run, so each worker owns its compiled
// predicate.
func buildScan(s *plan.Scan, ctx *Ctx, w *worker, st *obs.NodeStats) *scanKernel {
	return &scanKernel{scan: s, ctx: ctx, w: w, st: st, idIdx: -1, pred: newBatchPred(s.Pushed)}
}

// reset resolves the access path and binds the predicate and prune
// constants under the run's parameters and skipping switch.
func (k *scanKernel) reset() error {
	var ss scanSource
	var err error
	if k.w != nil {
		ss, err = k.w.run.source(k.scan)
	} else {
		ss, err = resolveScan(k.scan, k.ctx, k.ids[:0])
	}
	if err != nil {
		return err
	}
	k.tbl, k.mask, k.useIDs, k.ids, k.src = ss.tbl, ss.mask, ss.useIDs, ss.ids, ss.src
	k.pos, k.idPos, k.morselEnd, k.idEnd = 0, 0, 0, 0
	if k.src != nil {
		k.pos = -1 // nothing claimed yet
	}
	k.pred.bind(k.ctx)
	k.prune, k.pruner = k.prune[:0], nil
	if !k.ctx.NoSkip {
		k.prune = compilePrune(k.prune, k.scan.Prune, k.tbl, k.ctx)
		if k.auditPruner != nil && k.idIdx >= 0 {
			k.pruner = k.auditPruner
		}
	}
	k.chunkElide, k.elidedRows, k.lastChunk = false, 0, -1
	return nil
}

// flushAudit delivers the batch's accumulated partition-by values to
// the sink in one ObserveBatch call. Rows whose probes were elided by a
// sketch-refuted chunk never reach the sink: none could hit, so
// ACCESSED is what that many misses would leave. Both count as the
// Audit node's probes.
func (k *scanKernel) flushAudit() {
	if k.elidedRows > 0 {
		k.ast.Probes += k.elidedRows
		k.elidedRows = 0
	}
	if len(k.vals) == 0 {
		return
	}
	k.ast.Probes += int64(len(k.vals))
	k.ast.Hits += int64(k.sink.ObserveBatch(k.vals))
	k.vals = k.vals[:0]
}

// NextBatch implements the vectorized fast path: fill b up to its
// request ceiling, reading storage one bounded chunk at a time.
func (k *scanKernel) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	if k.useIDs {
		// The chunk buffer never needs to exceed the index result; a
		// point lookup gets a one-slot buffer, not a batch-sized one.
		need := len(k.ids) - k.idPos
		if need > limit {
			need = limit
		}
		if len(k.raw) < need {
			k.raw = make([]value.Row, need)
		}
	} else if len(k.raw) < limit || len(k.rawIDs) < limit {
		k.raw = make([]value.Row, limit)
		k.rawIDs = make([]storage.RowID, limit)
	}
	kept := 0
	for kept < limit {
		var n int
		var chunkIDs []storage.RowID
		if k.useIDs {
			if k.src != nil && k.idPos >= k.idEnd {
				lo, hi, ok := k.src.claim()
				if !ok {
					break
				}
				k.idPos, k.idEnd = lo, hi
				k.st.Morsels++
			}
			bound := len(k.ids)
			if k.src != nil {
				bound = k.idEnd
			}
			if k.idPos >= bound {
				break
			}
			end := k.idPos + (limit - kept)
			if end > bound {
				end = bound
			}
			chunk := k.ids[k.idPos:end]
			k.idPos = end
			n = k.tbl.FetchRows(chunk, k.raw)
			chunkIDs = chunk[:n]
		} else if k.src != nil {
			if k.pos < 0 {
				lo, hi, ok := k.src.claim()
				if !ok {
					break
				}
				k.pos, k.morselEnd = lo, hi
				k.st.Morsels++
			}
			if decide := k.decider(); decide != nil {
				n, k.pos = k.tbl.ScanRangePruned(k.pos, k.morselEnd, k.raw[:limit-kept], k.rawIDs, decide)
			} else {
				n, k.pos = k.tbl.ScanRange(k.pos, k.morselEnd, k.raw[:limit-kept], k.rawIDs)
			}
			chunkIDs = k.rawIDs[:n]
		} else {
			if k.pos < 0 {
				break
			}
			if decide := k.decider(); decide != nil {
				n, k.pos = k.tbl.ScanChunkPruned(k.pos, k.raw[:limit-kept], k.rawIDs, decide)
			} else {
				n, k.pos = k.tbl.ScanChunk(k.pos, k.raw[:limit-kept], k.rawIDs)
			}
			chunkIDs = k.rawIDs[:n]
		}
		k.st.RowsScanned += int64(n)
		// The mask and the predicate's fast path decide the whole chunk
		// first; the rows they leave undecided go to the interpreter here,
		// in row order, so the first error stops the batch where a
		// row-at-a-time scan would have.
		k.pred.eval(k.raw, n, k.mask, k.scan.Table, chunkIDs)
		for i, st := range k.pred.state {
			row := k.raw[i]
			if st != rowTrue {
				if st != rowSlow {
					continue
				}
				ok, err := k.pred.interpret(row, k.ctx, k.st)
				if err != nil {
					k.flushAudit()
					b.setRows(kept)
					return kept, err
				}
				if !ok {
					continue
				}
			}
			if k.sink != nil && k.idIdx >= 0 && k.idIdx < len(row) {
				if k.chunkElide {
					// Sketch-refuted chunk: this probe cannot hit, so
					// only the probe count advances (at flush).
					k.elidedRows++
				} else {
					k.vals = append(k.vals, row[k.idIdx])
				}
			}
			b.buf[kept] = row
			if b.ids != nil {
				b.ids[kept] = chunkIDs[i]
			}
			kept++
		}
	}
	k.flushAudit()
	b.setRows(kept)
	return kept, nil
}

// Close lets go of the run's rows and table.
func (k *scanKernel) Close() {
	clear(k.raw)
	clear(k.vals[:cap(k.vals)])
	if cap(k.ids) > keepRows {
		k.ids = nil
	}
	k.tbl, k.mask, k.src = nil, nil, nil
}

// equalityProbe evaluates the conjunct plan.EqProbe picks out of pred
// (col = constant, the constant side evaluable without a row). The
// planner's Scan.IndexPoint asks the same shape question, so the two
// agree on which scans are index lookups.
func equalityProbe(pred plan.Expr, ctx *Ctx) (col int, v value.Value, ok bool) {
	c, k, found := plan.EqProbe(pred)
	if !found {
		return 0, value.Null, false
	}
	if v, ok = constValue(k, ctx); !ok {
		return 0, value.Null, false
	}
	return c.Idx, v, true
}

// constValue evaluates a row-independent expression (literals,
// prepared-statement parameters and outer references; anything
// touching the current row is rejected).
func constValue(e plan.Expr, ctx *Ctx) (value.Value, bool) {
	switch x := e.(type) {
	case *plan.Const:
		return x.V, true
	case *plan.Param, *plan.Outer:
		v, err := x.Eval(ctx.Eval, nil)
		if err != nil {
			return value.Null, false
		}
		return v, true
	default:
		return value.Null, false
	}
}

// NextBatch copies row references out in bulk.
func (it *scanIter) NextBatch(b *Batch) (int, error) {
	n := copy(b.buf, it.rows[it.pos:])
	it.pos += n
	b.setRows(n)
	return n, nil
}

// dualRows is the one empty row a FROM-less SELECT reads.
var dualRows = []value.Row{{}}

// valuesIter scans a transient relation bound in the context (resolved
// per run) or the dual row.
type valuesIter struct {
	name string
	ctx  *Ctx
	scanIter
}

func (it *valuesIter) reset() error {
	it.pos = 0
	if it.name == plan.DualName {
		it.rows = dualRows
		return nil
	}
	rows, ok := it.ctx.Extra[it.name]
	if !ok {
		return fmt.Errorf("exec: transient relation %q is not bound", it.name)
	}
	it.rows = rows
	return nil
}

func (it *valuesIter) Close() { it.rows = nil }

// ---- Filter / Project ----

type filterIter struct {
	child Iterator
	pred  batchPred
	ctx   *Ctx
	st    *obs.NodeStats // the Filter node's record
}

func (it *filterIter) reset() error {
	it.pred.bind(it.ctx)
	return it.child.reset()
}

// NextBatch filters the child's batch in place: the predicate decides
// the batch (batchPred), then surviving rows are compacted to the front
// of the shared buffer, so a filter adds no copies and no allocations
// to the pipeline.
func (it *filterIter) NextBatch(b *Batch) (int, error) {
	for {
		n, err := it.child.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			b.setRows(0)
			return 0, nil
		}
		it.pred.eval(b.Rows, n, nil, "", nil)
		kept := 0
		for i, st := range it.pred.state {
			row := b.Rows[i]
			if st != rowTrue {
				if st != rowSlow {
					continue
				}
				ok, err := it.pred.interpret(row, it.ctx, it.st)
				if err != nil {
					return 0, err
				}
				if !ok {
					continue
				}
			}
			b.buf[kept] = row
			if b.ids != nil {
				b.ids[kept] = b.ids[i]
			}
			kept++
		}
		if kept > 0 {
			b.setRows(kept)
			return kept, nil
		}
	}
}

func (it *filterIter) Close() { it.child.Close() }

type projectIter struct {
	child Iterator
	exprs []plan.Expr
	ctx   *Ctx
	in    *Batch
	view  Batch // in sized to the caller's ceiling; a field so it does not escape per call
}

func (it *projectIter) reset() error { return it.child.reset() }

// NextBatch projects a whole input batch at once. Output rows must be
// freshly allocated (they escape to the consumer), but one backing
// array serves the entire batch: ~2 allocations per 1024 rows.
func (it *projectIter) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	if limit == 0 {
		b.setRows(0)
		return 0, nil
	}
	if it.in == nil || cap(it.in.buf) < limit || b.ids != nil && it.in.ids == nil {
		it.in = NewBatch(limit)
		if b.ids != nil {
			it.in.withIDs()
		}
	}
	it.view = it.in.view(limit)
	n, err := it.child.NextBatch(&it.view)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		b.setRows(0)
		return 0, nil
	}
	w := len(it.exprs)
	backing := make([]value.Value, n*w)
	for i, row := range it.view.Rows {
		out := backing[i*w : (i+1)*w : (i+1)*w]
		for j, e := range it.exprs {
			v, err := e.Eval(it.ctx.Eval, row)
			if err != nil {
				return 0, err
			}
			out[j] = v
		}
		b.buf[i] = out
	}
	if b.ids != nil {
		copy(b.ids, it.view.ids[:n])
	}
	b.setRows(n)
	return n, nil
}

func (it *projectIter) Close() {
	it.child.Close()
	it.in.release()
	it.view = Batch{}
}

// ---- Audit operator ----

// auditIter is deliberately minimal: it forwards rows unchanged and
// feeds the partition-by column to the sink. The sink performs the
// sensitive-ID hash probe (paper: a "hash join" whose build side is
// the materialized audit expression). It gathers a batch's
// partition-by values and hands them to the sink in one ObserveBatch
// call, so the probe pays its synchronization once per batch instead
// of once per row.
type auditIter struct {
	child Iterator
	idIdx int
	sink  plan.AuditObserver
	st    *obs.NodeStats // the Audit node's record
	vals  []value.Value
}

func (it *auditIter) reset() error { return it.child.reset() }

func (it *auditIter) NextBatch(b *Batch) (int, error) {
	n, err := it.child.NextBatch(b)
	if n == 0 || err != nil {
		return n, err
	}
	if it.idIdx < 0 {
		return n, nil
	}
	it.vals = it.vals[:0]
	for _, row := range b.Rows {
		if it.idIdx < len(row) {
			it.vals = append(it.vals, row[it.idIdx])
		}
	}
	it.st.Probes += int64(len(it.vals))
	it.st.Hits += int64(it.sink.ObserveBatch(it.vals))
	return n, nil
}

func (it *auditIter) Close() {
	it.child.Close()
	clear(it.vals[:cap(it.vals)])
}

// ---- Limit / Distinct ----

type limitIter struct {
	child Iterator
	n     int64
	count int64
	view  Batch // the caller's batch shrunk to the budget; a field so it does not escape per call
}

func (it *limitIter) reset() error {
	it.count = 0
	return it.child.reset()
}

// NextBatch shrinks the request ceiling to the remaining row budget
// before delegating, so producers below (scan kernels, fused audit
// probes) never read or observe more than a row-at-a-time engine
// would have pulled — modulo batch granularity for operators that
// over-produce within one batch.
func (it *limitIter) NextBatch(b *Batch) (int, error) {
	remaining := it.n - it.count
	if remaining <= 0 {
		b.setRows(0)
		return 0, nil
	}
	req := int64(b.limit())
	if remaining < req {
		req = remaining
	}
	it.view = b.view(int(req))
	n, err := it.child.NextBatch(&it.view)
	if err != nil {
		return 0, err
	}
	it.count += int64(n)
	b.setRows(n)
	return n, nil
}

func (it *limitIter) Close() {
	it.child.Close()
	it.view = Batch{}
}

type distinctIter struct {
	child  Iterator
	seen   map[string]struct{}
	keyBuf []byte
}

func (it *distinctIter) reset() error {
	if it.seen == nil {
		it.seen = make(map[string]struct{})
	}
	return it.child.reset()
}

// NextBatch drops rows already seen, compacting first occurrences to
// the front of the shared buffer exactly as filterIter does.
func (it *distinctIter) NextBatch(b *Batch) (int, error) {
	for {
		n, err := it.child.NextBatch(b)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			b.setRows(0)
			return 0, nil
		}
		kept := 0
		for _, row := range b.Rows {
			// Reusable key scratch: the map lookup on string(buf) does not
			// allocate; the key string is only materialized on insert.
			buf := it.keyBuf[:0]
			for _, v := range row {
				buf = value.EncodeKey(buf, v)
			}
			it.keyBuf = buf
			if _, dup := it.seen[string(buf)]; dup {
				continue
			}
			it.seen[string(buf)] = struct{}{}
			b.buf[kept] = row
			kept++
		}
		if kept > 0 {
			b.setRows(kept)
			return kept, nil
		}
	}
}

func (it *distinctIter) Close() {
	it.child.Close()
	it.seen = recycleMap(it.seen)
}
