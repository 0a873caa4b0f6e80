//go:build !race

package pgwire

const raceEnabled = false
