//go:build race

package pgwire

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates.
const raceEnabled = true
