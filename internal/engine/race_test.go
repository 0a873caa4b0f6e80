//go:build race

package engine

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates.
const raceEnabled = true
