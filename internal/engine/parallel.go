package engine

// Parallel-execution knobs. The engine ships serial by default
// (defaultWorkers = 1): embedded use — tests, the offline auditor, the
// workbench — keeps the exact serial executor unless a caller opts in.
// auditdbd raises the default to GOMAXPROCS via -workers, and any
// session can override its own budget with SET WORKERS.

// DefaultParallelMinRows is the planner's default parallelism
// threshold: fragments whose driving scan is estimated below this many
// rows stay serial, because worker startup and exchange costs would
// dominate. Tests lower it via SetParallelMinRows to force parallel
// plans over small fixtures.
const DefaultParallelMinRows = 8192

// SetDefaultWorkers sets the engine-wide worker budget inherited by
// sessions that have not run SET WORKERS. Values below 1 clamp to 1
// (serial).
func (e *Engine) SetDefaultWorkers(n int) {
	if n < 1 {
		n = 1
	}
	e.defaultWorkers.Store(int64(n))
	e.execWorkers.Set(int64(n))
}

// DefaultWorkers returns the engine-wide worker budget.
func (e *Engine) DefaultWorkers() int {
	return int(e.defaultWorkers.Load())
}

// SetParallelMinRows sets the estimated-input-size threshold below
// which the planner keeps fragments serial.
func (e *Engine) SetParallelMinRows(n int) {
	if n < 1 {
		n = 1
	}
	e.parallelMinRows.Store(int64(n))
}

// tableEstimate is the planner's input-size estimate (opt.EstimateFn):
// current stored cardinality, which is exact at plan time — DML
// appended after the plan opens is invisible to the scan's snapshot
// bound anyway.
func (e *Engine) tableEstimate(table string) int64 {
	tbl, ok := e.store.Table(table)
	if !ok {
		return 0
	}
	return int64(tbl.Len())
}
