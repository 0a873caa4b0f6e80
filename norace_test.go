//go:build !race

package auditdb

const raceEnabled = false
