package exec

import (
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// BatchSize is the maximum number of rows moved per NextBatch call.
// Large enough to amortize per-batch costs (virtual dispatch, audit
// probe synchronization, chunked storage locking), small enough that a
// pipeline's working set stays in cache.
const BatchSize = 1024

// batchSeed is the initial batch capacity. Consumers start small so a
// point query never pays for kilobytes of zeroed buffers, and grow
// toward BatchSize only while batches keep coming back full.
const batchSeed = 8

// Batch is a reusable row buffer passed down an operator tree. The
// consumer allocates it once (NewBatch) and hands it to NextBatch
// repeatedly; producers fill the backing buffer and set Rows to the
// valid prefix. The length of the backing buffer is the consumer's
// request ceiling — operators like Limit shrink it (via view) to bound
// how many rows flow, which keeps audit-probe observation aligned with
// what a row-at-a-time engine would have pulled. A batch an operator
// keeps between runs may have more capacity than its ceiling.
type Batch struct {
	// Rows is the valid output of the last NextBatch call: a prefix of
	// the backing buffer. The slice (not the rows, which are immutable)
	// is invalidated by the next NextBatch call on the same Batch.
	Rows []value.Row

	buf []value.Row
	// ids is the optional row-ID lane (RunIDs; SELECTs never carry it),
	// as long as buf's capacity: ids[i] is the RowID Rows[i] was read
	// from. Scan kernels fill it, filters compact it with the rows and
	// projections pass it through 1:1; nothing else writes it.
	ids []storage.RowID
}

// NewBatch allocates a batch with room for n rows.
func NewBatch(n int) *Batch { return &Batch{buf: make([]value.Row, n)} }

// withIDs gives b a row-ID lane.
func (b *Batch) withIDs() *Batch {
	b.ids = make([]storage.RowID, cap(b.buf))
	return b
}

// limit returns the maximum number of rows a producer may emit.
func (b *Batch) limit() int { return len(b.buf) }

// setRows publishes the first n buffered rows as the batch's output.
func (b *Batch) setRows(n int) { b.Rows = b.buf[:n] }

// view returns a sub-batch sharing b's first n buffer slots (at most
// its capacity), used by Limit to shrink the request ceiling for its
// child and by Project to size its input to the caller's ceiling.
func (b *Batch) view(n int) Batch {
	if n > cap(b.buf) {
		n = cap(b.buf)
	}
	return Batch{buf: b.buf[:n], ids: b.ids}
}

// grown implements adaptive batch sizing for batch-owning loops: pass
// nil to get a seed-sized batch, and pass the batch back before each
// refill — if the previous call filled it to its ceiling, the ceiling
// grows ×4 (capped at BatchSize), inside the buffer's capacity when a
// kept batch already has room. Small results never pay for kilobytes of
// zeroed buffers; long streams quickly reach full-width batches.
func grown(b *Batch) *Batch {
	if b == nil {
		return NewBatch(batchSeed)
	}
	if n := len(b.buf); len(b.Rows) == n && n < BatchSize {
		n = min(n*4, BatchSize)
		if cap(b.buf) >= n {
			b.buf = b.buf[:n]
		} else {
			b.buf = make([]value.Row, n)
		}
		if b.ids != nil && len(b.ids) < n {
			b.withIDs()
		}
	}
	return b
}

// release ends a kept batch's run: it drops the row references the
// buffer holds, so an idle operator instance pins no rows, and returns
// the ceiling to the seed, so the next run's requests grow exactly as a
// fresh batch's would. The capacity stays for the next run. Safe on nil.
func (b *Batch) release() {
	if b == nil {
		return
	}
	clear(b.buf[:cap(b.buf)])
	b.buf = b.buf[:min(batchSeed, cap(b.buf))]
	b.Rows = nil
}

// keepRows bounds the data-sized state an operator keeps between runs:
// result scratch, join build tables, aggregate groups, sort and
// distinct state, index candidates. State that stayed within it is
// emptied in place when a run ends and reused by the next run; past it,
// the state is dropped, so an instance that once ran a big query does
// not hold that memory while idle. Batches never exceed BatchSize and
// are always kept.
const keepRows = BatchSize

// sized returns s resized to n, reallocated when it is too small: a
// per-row lane that follows its batches (selection vectors, join
// keys). Past the seed it goes straight to BatchSize, so a lane does
// not reallocate at every step of a batch's growth.
func sized[E any](s []E, n int) []E {
	if cap(s) < n {
		c := n
		if n > batchSeed {
			c = max(n, BatchSize)
		}
		s = make([]E, c)
	}
	return s[:n]
}

// recycle empties s for the next run, dropping the references it holds,
// or drops it when it grew past keepRows.
func recycle[S ~[]E, E any](s S) S {
	if cap(s) > keepRows {
		return nil
	}
	clear(s)
	return s[:0]
}

// pull drives it to exhaustion on behalf of a batch-owning consumer,
// refilling *bp with grown's seed-8/×4 policy and handing each
// non-empty batch's rows to each (the slice is only valid during that
// call). The caller owns *bp: an operator keeps it between runs and
// releases it when the run ends. It is the one refill loop behind
// Instance runs, the join builds, aggregation and sort.
func pull(it Iterator, bp **Batch, each func(rows []value.Row) error) error {
	for {
		*bp = grown(*bp)
		b := *bp
		n, err := it.NextBatch(b)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := each(b.Rows); err != nil {
			return err
		}
	}
}
