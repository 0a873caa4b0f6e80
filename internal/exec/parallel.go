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
	stats  *Stats
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
	if m.stats != nil {
		m.stats.MorselsClaimed.Add(1)
	}
	return int(l), int(h), true
}

// workerCtx clones a statement context for one worker: everything is
// shared (store, mask, transient relations, stats accumulator, analyze
// collector, skipping switches) except the parallelism budget and the
// evaluation context — EvalCtx carries a correlation stack and a
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

// lockedSink shares one non-forkable audit sink across workers behind
// a mutex. It is the correctness fallback — core.Probe implements
// ParallelAuditSink and never takes this path, but instrumentation
// sinks (EXPLAIN ANALYZE) may not.
type lockedSink struct {
	mu sync.Mutex
	s  plan.AuditSink
	bs plan.BatchAuditSink
}

func (l *lockedSink) Observe(v value.Value) {
	l.mu.Lock()
	l.s.Observe(v)
	l.mu.Unlock()
}

func (l *lockedSink) ObserveBatch(vs []value.Value) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.bs != nil {
		l.bs.ObserveBatch(vs)
		return
	}
	for _, v := range vs {
		l.s.Observe(v)
	}
}

// parallelRun is the shared state of one parallel subtree execution:
// one resolved scanSource (with its morsel cursor) per parallel scan,
// one prebuilt partitioned hash table per parallel join, and the
// mutex-wrapped fallbacks for non-forkable audit sinks. The first
// worker's open resolves each entry and the rest reuse it; every
// fragment is built serially, before any worker goroutine starts, so
// none of the maps need locking — and join build sides execute, and
// heap bounds are captured, before workers exist.
type parallelRun struct {
	ctx     *Ctx
	workers int
	sources map[*plan.Scan]scanSource
	joins   map[*plan.Join][]map[string]*joinBucket
	locked  map[plan.AuditSink]*lockedSink
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
	ss, err := resolveScan(s, pr.ctx)
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
	ss.src = &morselSource{bound: int64(bound), stats: pr.ctx.Stats}
	pr.sources[s] = ss
	return ss, nil
}

// join returns j's shared build table, building it on first use.
func (pr *parallelRun) join(j *plan.Join) ([]map[string]*joinBucket, error) {
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
		joins:   make(map[*plan.Join][]map[string]*joinBucket),
		locked:  make(map[plan.AuditSink]*lockedSink),
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

// sink returns the audit sink this worker's fragment should feed: a
// forked worker-local sink (recorded for the post-run union) when s
// supports it, otherwise the run's shared mutex wrapper.
func (w *worker) sink(s plan.AuditSink) plan.AuditSink {
	if ps, ok := s.(plan.ParallelAuditSink); ok {
		f := ps.Fork()
		w.merges = append(w.merges, f)
		return f
	}
	ls, ok := w.run.locked[s]
	if !ok {
		ls = &lockedSink{s: s}
		ls.bs, _ = s.(plan.BatchAuditSink)
		w.run.locked[s] = ls
	}
	return ls
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

// partitionOf hashes an encoded join key (FNV-1a) onto a partition.
func partitionOf(key []byte, n int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for _, c := range key {
		h ^= uint32(c)
		h *= prime32
	}
	return int(h % uint32(n))
}

// keyedRow pairs a build row with its materialized join key.
type keyedRow struct {
	key string
	row value.Row
}

// buildSharedJoin executes the build side serially (it may be an
// arbitrary subtree), then builds the hash table split into key-hash
// partitions, so the build itself runs on all workers without a
// shared-map bottleneck: phase 1 splits the rows into contiguous segments, one
// worker per segment, each encoding keys and binning keyed rows by
// partition; phase 2 runs one goroutine per partition, folding the
// segments in ascending worker order — which reproduces the serial
// build's bucket row order exactly, so probe outputs cannot depend on
// build parallelism.
func buildSharedJoin(j *plan.Join, ctx *Ctx, workers int) ([]map[string]*joinBucket, error) {
	rows, err := collect(j.Right, ctx)
	if err != nil {
		return nil, err
	}

	segs := workers
	if segs > len(rows) {
		segs = len(rows)
	}
	per := make([][][]keyedRow, segs)
	errs := make([]error, segs)
	var wg sync.WaitGroup
	for w := 0; w < segs; w++ {
		lo, hi := len(rows)*w/segs, len(rows)*(w+1)/segs
		per[w] = make([][]keyedRow, workers)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			wctx := workerCtx(ctx)
			var keyBuf []byte
			for _, row := range rows[lo:hi] {
				var null bool
				var err error
				keyBuf, null, err = appendJoinKey(keyBuf[:0], j.RightKeys, wctx, row)
				if err != nil {
					errs[w] = err
					return
				}
				if null {
					continue // NULL keys never join
				}
				p := partitionOf(keyBuf, workers)
				per[w][p] = append(per[w][p], keyedRow{key: string(keyBuf), row: row})
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}

	parts := make([]map[string]*joinBucket, workers)
	var bw sync.WaitGroup
	for p := 0; p < workers; p++ {
		bw.Add(1)
		go func(p int) {
			defer bw.Done()
			m := make(map[string]*joinBucket)
			for w := 0; w < segs; w++ {
				for _, kr := range per[w][p] {
					if bkt, ok := m[kr.key]; ok {
						bkt.rows = append(bkt.rows, kr.row)
					} else {
						m[kr.key] = &joinBucket{rows: []value.Row{kr.row}}
					}
				}
			}
			parts[p] = m
		}(p)
	}
	bw.Wait()
	return parts, nil
}

// ---- Gather exchange ----

// gatherIter funnels the batches of a worker pool into one serial row
// stream. Row order across morsels is unspecified; operators that need
// an order must sit above an explicit Sort. Close (or exhaustion)
// guarantees every worker has finished and merged its audit sinks, so
// the engine can read the ACCESSED state the moment execution returns.
type gatherIter struct {
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

func openGather(g *plan.Gather, ctx *Ctx) (Iterator, error) {
	workers := g.Workers
	if workers <= 1 {
		// A degenerate exchange executes its child serially; parallel
		// markers below are ignored by the serial operators.
		return open(g.Child, ctx, nil)
	}
	ws, err := openWorkers(g.Child, ctx, workers)
	if err != nil {
		return nil, err
	}
	if az := ctx.Analyze; az != nil {
		az.Node(g).Workers = int64(workers)
	}
	it := &gatherIter{
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
func (it *gatherIter) pump(src Iterator) error {
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

func (it *gatherIter) fail(err error) {
	it.errMu.Lock()
	if it.err == nil {
		it.err = err
	}
	it.errMu.Unlock()
	it.stopOnce.Do(func() { close(it.stop) })
}

func (it *gatherIter) takeErr() error {
	it.errMu.Lock()
	defer it.errMu.Unlock()
	return it.err
}

// NextBatch refills from the worker channel. Batches buffered before
// an error may still be delivered; the error surfaces when the channel
// drains, and the engine discards partial results on error.
func (it *gatherIter) NextBatch(b *Batch) (int, error) {
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
func (it *gatherIter) Close() {
	it.closeOnce.Do(func() {
		it.stopOnce.Do(func() { close(it.stop) })
		for range it.out {
		}
	})
}
