//go:build race

package server

// raceEnabled gates the allocation budgets: the race detector's
// instrumentation allocates.
const raceEnabled = true
