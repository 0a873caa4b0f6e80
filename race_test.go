//go:build race

package auditdb

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates.
const raceEnabled = true
