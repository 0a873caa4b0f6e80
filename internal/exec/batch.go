package exec

import (
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
// valid prefix. cap of the backing buffer is the consumer's request
// ceiling — operators like Limit shrink it (via view) to bound how
// many rows flow, which keeps audit-probe observation aligned with
// what a row-at-a-time engine would have pulled.
type Batch struct {
	// Rows is the valid output of the last NextBatch call: a prefix of
	// the backing buffer. The slice (not the rows, which are immutable)
	// is invalidated by the next NextBatch call on the same Batch.
	Rows []value.Row

	buf []value.Row
}

// NewBatch allocates a batch with room for n rows.
func NewBatch(n int) *Batch { return &Batch{buf: make([]value.Row, n)} }

// limit returns the maximum number of rows a producer may emit.
func (b *Batch) limit() int { return len(b.buf) }

// setRows publishes the first n buffered rows as the batch's output.
func (b *Batch) setRows(n int) { b.Rows = b.buf[:n] }

// view returns a sub-batch sharing b's first n buffer slots, used by
// Limit to shrink the request ceiling for its child.
func (b *Batch) view(n int) Batch {
	if n > len(b.buf) {
		n = len(b.buf)
	}
	return Batch{buf: b.buf[:n]}
}

// grown implements adaptive batch sizing for batch-owning loops: pass
// nil to get a seed-sized batch, and pass the batch back before each
// refill — if the previous call filled it to capacity, a larger
// replacement (×4, capped at BatchSize) is returned. Small results
// never pay for kilobytes of zeroed buffers; long streams quickly
// reach full-width batches.
func grown(b *Batch) *Batch {
	if b == nil {
		return NewBatch(batchSeed)
	}
	if n := len(b.buf); len(b.Rows) == n && n < BatchSize {
		n *= 4
		if n > BatchSize {
			n = BatchSize
		}
		return NewBatch(n)
	}
	return b
}

// pull drives it to exhaustion on behalf of a batch-owning consumer,
// refilling with grown's seed-8/×4 policy and handing each non-empty
// batch's rows to each (the slice is only valid during that call). It
// is the one refill loop behind Run, Drain, the join builds,
// aggregation and sort.
func pull(it Iterator, each func(rows []value.Row) error) error {
	var b *Batch
	for {
		b = grown(b)
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
