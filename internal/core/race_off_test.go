//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in. The
// echo's allocation budget is not asserted under -race: sync.Pool drops
// a random share of what is put back in race builds (netstack's pooled
// waiters among it), so pooled objects are sometimes made anew.
const raceEnabled = false
