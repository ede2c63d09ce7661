//go:build !race

package netstack_test

// raceEnabled reports whether the race detector is compiled in. The
// allocation-count assertion on the driven wait is skipped under -race:
// sync.Pool drops a random share of what is put back in race builds, so
// the pooled nic.Waiter is sometimes made anew.
const raceEnabled = false
