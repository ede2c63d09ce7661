//go:build race

package netstack_test

const raceEnabled = true
