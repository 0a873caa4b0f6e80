// Morsel-driven parallel execution (HyPer-style): a Gather exchange
// runs one pipeline fragment per worker; every fragment shares the
// same scan cursor and claims bounded morsels of the parallel leaf, so
// work distributes dynamically without pre-partitioning the table.
// Audit probes inside a fragment run against worker-local forked sinks
// that are union-merged into the query's ACCESSED state at close —
// probes are pure and commutative (paper Claim 3.6), so the merged
// state is exactly the serial one no matter how morsels interleave.
package exec

import (
	"fmt"
	"sync"
	"sync/atomic"

	"auditdb/internal/obs"
	"auditdb/internal/plan"
	"auditdb/internal/value"
)

// MorselSize is the number of heap slots (or index-result offsets) a
// worker claims per trip to the shared cursor. Large enough that the
// atomic claim disappears from the per-row cost, small enough that a
// skewed predicate cannot leave one worker holding most of the table.
const MorselSize = 4096

// morselSource is the shared claim cursor of one parallel scan: a
// single atomic counter over a bound fixed when the source is built.
// Claims hand out disjoint [lo, hi) windows, so no row is scanned by
// two workers and none is skipped.
type morselSource struct {
	cursor atomic.Int64
	bound  int64
}

// claim reserves the next morsel. ok=false means the input is fully
// claimed (workers finishing their last window may still be running).
func (m *morselSource) claim() (lo, hi int, ok bool) {
	l := m.cursor.Add(MorselSize) - MorselSize
	if l >= m.bound {
		return 0, 0, false
	}
	h := l + MorselSize
	if h > m.bound {
		h = m.bound
	}
	return int(l), int(h), true
}

// workerCtx clones a statement context for one worker: everything is
// shared (store, mask, transient relations, the instance's records,
// the clock bit, skipping switches) except the parallelism budget and
// the evaluation context — EvalCtx carries a correlation stack and a
// subquery cache that must not be shared across goroutines. (The
// planner only parallelizes subquery-free fragments; the runner is
// installed anyway so a missed gate fails loudly in -race runs rather
// than silently corrupting shared state.)
func workerCtx(ctx *Ctx) *Ctx {
	w := *ctx
	w.Workers = 1
	w.Eval = &plan.EvalCtx{Session: ctx.Eval.Session, Params: ctx.Eval.Params}
	if len(ctx.Eval.Outer) > 0 {
		w.Eval.Outer = append([]value.Row(nil), ctx.Eval.Outer...)
	}
	w.init()
	return &w
}

// parallelRun is the shared state of one parallel subtree execution:
// one resolved scanSource (with its morsel cursor) per parallel scan,
// and one prebuilt partitioned hash table per parallel join. The first
// worker's open resolves each entry and the rest reuse it; every
// fragment is built serially, before any worker goroutine starts, so
// none of the maps need locking — and join build sides execute, and
// heap bounds are captured, before workers exist.
type parallelRun struct {
	ctx     *Ctx
	workers int
	sources map[*plan.Scan]scanSource
	joins   map[*plan.Join][]joinTable
}

// source returns the shared access path and claim cursor of s. The
// index lookup runs once here: per-worker LookupEq calls would each
// snapshot their own (potentially different) result and break the
// disjointness of morsel claims.
func (pr *parallelRun) source(s *plan.Scan) (scanSource, error) {
	if ss, ok := pr.sources[s]; ok {
		return ss, nil
	}
	if !s.Parallel {
		return scanSource{}, fmt.Errorf("exec: scan of %q inside a parallel fragment is not morsel-driven", s.Table)
	}
	ss, err := resolveScan(s, pr.ctx, nil)
	if err != nil {
		return ss, err
	}
	// The heap bound is captured here, before workers start: rows
	// appended by concurrent DML after this point are invisible to the
	// scan, exactly like the serial ScanChunk cursor's snapshot behavior
	// at its last chunk.
	bound := ss.tbl.HeapBound()
	if ss.useIDs {
		bound = len(ss.ids)
	}
	ss.src = &morselSource{bound: int64(bound)}
	pr.sources[s] = ss
	return ss, nil
}

// join returns j's shared build table, building it on first use.
func (pr *parallelRun) join(j *plan.Join) ([]joinTable, error) {
	if parts, ok := pr.joins[j]; ok {
		return parts, nil
	}
	if !j.Parallel || len(j.LeftKeys) == 0 {
		return nil, fmt.Errorf("exec: join inside a parallel fragment is not partition-parallel")
	}
	parts, err := buildSharedJoin(j, pr.ctx, pr.workers)
	if err != nil {
		return nil, err
	}
	pr.joins[j] = parts
	return parts, nil
}

// worker is one pipeline fragment of a parallel run: its private
// context, its operator tree, and the forked audit sinks it must merge
// into the statement's ACCESSED state when it finishes.
type worker struct {
	run    *parallelRun
	ctx    *Ctx
	iter   Iterator
	merges []plan.WorkerAuditSink
}

// openWorkers builds one fragment of root per worker. On failure the
// fragments already built are closed.
func openWorkers(root plan.Node, ctx *Ctx, workers int) ([]*worker, error) {
	pr := &parallelRun{
		ctx:     ctx,
		workers: workers,
		sources: make(map[*plan.Scan]scanSource),
		joins:   make(map[*plan.Join][]joinTable),
	}
	ws := make([]*worker, workers)
	for i := range ws {
		w := &worker{run: pr, ctx: workerCtx(ctx)}
		var err error
		if w.iter, err = open(root, w.ctx, w); err != nil {
			for _, built := range ws[:i] {
				built.iter.Close()
			}
			return nil, err
		}
		ws[i] = w
	}
	return ws, nil
}

// sink forks s for this worker's fragment, recording the fork for the
// post-run union.
func (w *worker) sink(s plan.AuditSink) plan.WorkerAuditSink {
	f := s.Fork()
	w.merges = append(w.merges, f)
	return f
}

// drive runs body on the worker's goroutine. When body returns the
// fragment closes and its audit sinks merge — in a defer, so partial
// observations land even on error or panic (a superset-free subset of
// the serial ACCESSED, and the query fails anyway).
func (w *worker) drive(body func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("exec: parallel worker panic: %v", r)
		}
	}()
	defer func() {
		w.iter.Close()
		for _, m := range w.merges {
			m.Merge()
		}
	}()
	return body()
}

// ---- Partitioned parallel hash-join build ----

// buildSharedJoin executes the build side serially (it may be an
// arbitrary subtree), then builds the join table split into key-hash
// partitions, so the build itself runs on all workers without a
// shared-map bottleneck: phase 1 splits the rows into contiguous
// segments, one worker per segment, each gathering its segment's keys
// into a key lane and binning the rows by partition; phase 2 runs one
// goroutine per partition, adding the segments' rows in ascending
// worker order — which reproduces the serial build's bucket row order
// exactly, so probe outputs cannot depend on build parallelism.
func buildSharedJoin(j *plan.Join, ctx *Ctx, workers int) ([]joinTable, error) {
	rows, err := collect(j.Right, ctx)
	if err != nil {
		return nil, err
	}

	segs := min(workers, len(rows))
	lanes := make([]keyLane, segs)
	per := make([][][]int32, segs) // per[w][p]: segment w's rows in partition p, as offsets
	var wg sync.WaitGroup
	for w := 0; w < segs; w++ {
		lo, hi := len(rows)*w/segs, len(rows)*(w+1)/segs
		per[w] = make([][]int32, workers)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			l := &lanes[w]
			l.gather(j.RightKeys, workerCtx(ctx), rows[lo:hi])
			for i := range l.errAt {
				if l.keys[i].null {
					continue // NULL never joins
				}
				p := l.partition(i, workers)
				per[w][p] = append(per[w][p], int32(i))
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for w := range lanes {
		if lanes[w].err != nil {
			return nil, lanes[w].err
		}
	}

	parts := make([]joinTable, workers)
	var bw sync.WaitGroup
	for p := 0; p < workers; p++ {
		bw.Add(1)
		go func(p int) {
			defer bw.Done()
			for w := 0; w < segs; w++ {
				seg := rows[len(rows)*w/segs:]
				for _, i := range per[w][p] {
					parts[p].add(&lanes[w], int(i), seg[i])
				}
			}
		}(p)
	}
	bw.Wait()
	return parts, nil
}

// ---- Gather exchange ----

// gatherIter is the Gather operator. Every run starts a new exchange —
// worker fragments, shared sources and build tables, channels and
// goroutines — so nothing of one parallel run survives into the next.
type gatherIter struct {
	g   *plan.Gather
	ctx *Ctx
	st  *obs.NodeStats // the Gather node's record
	x   *exchange      // the current run's; nil between runs
}

func buildGather(g *plan.Gather, ctx *Ctx, st *obs.NodeStats) (Iterator, error) {
	if g.Workers <= 1 {
		// A degenerate exchange executes its child serially; parallel
		// markers below are ignored by the serial operators.
		return build(g.Child, ctx, nil)
	}
	return &gatherIter{g: g, ctx: ctx, st: st}, nil
}

func (it *gatherIter) reset() error {
	x, err := startExchange(it.g, it.ctx)
	if err != nil {
		return err
	}
	it.x = x
	it.st.Workers = int64(it.g.Workers)
	return nil
}

func (it *gatherIter) NextBatch(b *Batch) (int, error) { return it.x.NextBatch(b) }

// Close guarantees every worker has finished and merged its audit
// sinks, so the engine can read the ACCESSED state the moment
// execution returns.
func (it *gatherIter) Close() {
	if it.x != nil {
		it.x.Close()
		it.x = nil
	}
}

// exchange funnels the batches of a worker pool into one serial row
// stream. Row order across morsels is unspecified; operators that need
// an order must sit above an explicit Sort.
type exchange struct {
	out  chan []value.Row // produced row slices, closed after last worker exits
	free chan []value.Row // recycled slices, best-effort
	stop chan struct{}    // closed to cancel workers (error or early Close)

	stopOnce  sync.Once
	closeOnce sync.Once
	wg        sync.WaitGroup

	errMu sync.Mutex
	err   error

	cur []value.Row
	pos int
}

// startExchange builds one fragment of g's child per worker and starts
// the workers.
func startExchange(g *plan.Gather, ctx *Ctx) (*exchange, error) {
	workers := g.Workers
	ws, err := openWorkers(g.Child, ctx, workers)
	if err != nil {
		return nil, err
	}
	it := &exchange{
		out:  make(chan []value.Row, workers),
		free: make(chan []value.Row, workers*2),
		stop: make(chan struct{}),
	}
	it.wg.Add(workers)
	for _, w := range ws {
		go func(w *worker) {
			defer it.wg.Done()
			if err := w.drive(func() error { return it.pump(w.iter) }); err != nil {
				it.fail(err)
			}
		}(w)
	}
	go func() {
		it.wg.Wait()
		close(it.out)
	}()
	return it, nil
}

// pump drives one fragment to exhaustion, shipping each non-empty
// batch to the consumer, until the exchange is stopped.
func (it *exchange) pump(src Iterator) error {
	var b *Batch
	for {
		select {
		case <-it.stop:
			return nil
		default:
		}
		b = grown(b)
		n, err := src.NextBatch(b)
		if n == 0 || err != nil {
			return err
		}
		var s []value.Row
		select {
		case s = <-it.free:
		default:
		}
		s = append(s[:0], b.Rows...)
		select {
		case it.out <- s:
		case <-it.stop:
			return nil
		}
	}
}

func (it *exchange) fail(err error) {
	it.errMu.Lock()
	if it.err == nil {
		it.err = err
	}
	it.errMu.Unlock()
	it.stopOnce.Do(func() { close(it.stop) })
}

func (it *exchange) takeErr() error {
	it.errMu.Lock()
	defer it.errMu.Unlock()
	return it.err
}

// NextBatch refills from the worker channel. Batches buffered before
// an error may still be delivered; the error surfaces when the channel
// drains, and the engine discards partial results on error.
func (it *exchange) NextBatch(b *Batch) (int, error) {
	limit := b.limit()
	for it.cur == nil || it.pos >= len(it.cur) {
		if it.cur != nil {
			select {
			case it.free <- it.cur:
			default:
			}
			it.cur = nil
		}
		s, ok := <-it.out
		if !ok {
			b.setRows(0)
			return 0, it.takeErr()
		}
		it.cur, it.pos = s, 0
	}
	n := copy(b.buf[:limit], it.cur[it.pos:])
	it.pos += n
	b.setRows(n)
	return n, nil
}

// Close cancels outstanding work and blocks until every worker has
// exited — which is what makes the post-execution ACCESSED state
// complete: all worker-local sink merges happen-before Close returns.
func (it *exchange) Close() {
	it.closeOnce.Do(func() {
		it.stopOnce.Do(func() { close(it.stop) })
		for range it.out {
		}
	})
}
