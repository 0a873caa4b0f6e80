// Chunk-level data skipping for the fused scan kernel: the optimizer's
// declarative PruneTerms compile here into closed int64 comparisons
// against per-chunk zone maps, and attached audit expressions refute
// chunks against their sensitive-ID sketches. Both decisions are
// conservative — a skipped chunk provably contributes no result rows
// (filter refutation) or no ACCESSED entries (sketch refutation), so
// results and audit trails are byte-identical with skipping off.

package exec

import (
	"auditdb/internal/plan"
	"auditdb/internal/storage"
	"auditdb/internal/value"
)

// prunePred is one compiled chunk-refutation predicate: a term whose
// constant side resolved to an I-backed value at reset. refutes answers
// "can no row of this chunk satisfy the term?" — the one-sided proof
// obligation, where any uncertainty answers false (scan the chunk).
type prunePred struct {
	kind plan.PruneKind
	col  int
	op   plan.CmpOp
	v    int64
	// alwaysFalse marks a comparison against a NULL constant: SQL
	// three-valued logic rejects every row, so every chunk refutes.
	alwaysFalse bool
}

// iBacked reports whether values of kind k store their payload in
// Value.I with raw-int comparison semantics (value.Compare uses the
// integer fast path whenever no float is involved).
func iBacked(k value.Kind) bool {
	return k == value.KindInt || k == value.KindDate || k == value.KindBool
}

// compilePrune resolves a scan's declarative prune terms against the
// current parameter bindings, appending to out (the kernel's buffer,
// reused every run). Terms whose constant is not I-backed (or whose
// column kind is not) are dropped — pruning simply does less; the full
// predicate still runs over every scanned row.
func compilePrune(out []prunePred, terms []plan.PruneTerm, tbl *storage.Table, ctx *Ctx) []prunePred {
	cols := tbl.Meta().Columns
	for _, t := range terms {
		if t.Col < 0 || t.Col >= len(cols) {
			continue
		}
		switch t.Kind {
		case plan.PruneIsNull, plan.PruneNotNull:
			out = append(out, prunePred{kind: t.Kind, col: t.Col})
		case plan.PruneCmp:
			if !iBacked(cols[t.Col].Type) {
				continue
			}
			v, ok := constValue(t.Val, ctx)
			if !ok {
				continue
			}
			if v.Kind == value.KindNull {
				return append(out[:0], prunePred{alwaysFalse: true})
			}
			if !iBacked(v.Kind) {
				continue
			}
			out = append(out, prunePred{kind: plan.PruneCmp, col: t.Col, op: t.Op, v: v.I})
		}
	}
	return out
}

// refutes reports whether the chunk provably contains no row satisfying
// the term. Zone-map bounds are conservative supersets between rebuilds
// (they only widen under DML), so refutation against them stays sound;
// null counts are monotone upper bounds, so a zero count is exact.
func (p *prunePred) refutes(ci storage.ChunkInfo) bool {
	if p.alwaysFalse {
		return true
	}
	switch p.kind {
	case plan.PruneIsNull:
		nulls, _ := ci.NullCounts(p.col)
		return nulls == 0
	case plan.PruneNotNull:
		_, nonNull := ci.NullCounts(p.col)
		return nonNull == 0
	}
	// PruneCmp: NULL column values make the comparison UNKNOWN, which
	// the filter rejects — so only non-null values matter, which is
	// exactly what the zone map covers.
	_, nonNull := ci.NullCounts(p.col)
	if nonNull == 0 {
		return true
	}
	lo, hi, ok := ci.Range(p.col)
	if !ok {
		return false
	}
	switch p.op {
	case plan.CmpEq:
		return p.v < lo || p.v > hi || !ci.MayContain(p.col, p.v)
	case plan.CmpNe:
		return lo == hi && lo == p.v
	case plan.CmpLt:
		return lo >= p.v
	case plan.CmpLe:
		return lo > p.v
	case plan.CmpGt:
		return hi <= p.v
	case plan.CmpGe:
		return hi < p.v
	}
	return false
}

// projectedScanColumn maps an audit operator's key ordinal in a
// Project's output schema back to the underlying scan column, when the
// projected expression at that ordinal is a plain column reference.
// ok=false means the key is computed and the audit cannot fuse through
// the projection.
func projectedScanColumn(pj *plan.Project, idx int) (int, bool) {
	if idx < 0 || idx >= len(pj.Exprs) {
		return -1, false
	}
	if c, ok := pj.Exprs[idx].(*plan.Col); ok {
		return c.Idx, true
	}
	return -1, false
}

// decider returns the kernel's chunk-pruning callback, or nil when no
// pruning applies this run (skipping disabled, index-assisted path, or
// nothing to prune with). The method value is built once per kernel
// and reused across calls and runs.
func (k *scanKernel) decider() func(storage.ChunkInfo) bool {
	if k.useIDs || (len(k.prune) == 0 && k.pruner == nil) {
		return nil
	}
	if k.decideFn == nil {
		k.decideFn = k.decide
	}
	return k.decideFn
}

// decide is called by the pruned scan paths on entry to each non-empty
// chunk (and again on mid-chunk resume when the output batch is smaller
// than a chunk — lastChunk keeps the counters per-chunk exact).
// Returning false skips the chunk without copying a row. A chunk that
// survives the filter terms but whose audit sketch refutes every row
// is still scanned, with the per-row probes elided (chunkElide):
// result rows are owed to the consumer, but no probe can hit.
func (k *scanKernel) decide(ci storage.ChunkInfo) bool {
	c := ci.Chunk()
	newChunk := c != k.lastChunk
	k.lastChunk = c
	for i := range k.prune {
		if k.prune[i].refutes(ci) {
			if newChunk {
				k.st.ChunksSkippedFilter++
			}
			return false
		}
	}
	k.chunkElide = false
	if k.pruner != nil && k.pruner.RefuteChunk(k.idIdx, ci) {
		// The sketch proves no row of this chunk is sensitive. With
		// AuditOnly (offline candidate pruning: result rows discarded)
		// the whole chunk skips; otherwise the rows still flow to the
		// consumer and only the per-row probes are elided, still
		// counted in the Audit node's Probes.
		if k.ctx.AuditOnly {
			if newChunk {
				k.st.ChunksSkippedAudit++
			}
			return false
		}
		k.chunkElide = true
		if newChunk {
			k.st.ChunksSkippedAudit++
		}
	}
	if newChunk {
		k.st.ChunksScanned++
	}
	return true
}
