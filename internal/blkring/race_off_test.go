//go:build !race

package blkring

// raceEnabled reports whether the race detector is compiled in; the
// allocation-count assertions are skipped under it.
const raceEnabled = false
