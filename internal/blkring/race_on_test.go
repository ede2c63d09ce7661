//go:build race

package blkring

const raceEnabled = true
