package safering

import (
	"sync"
	"testing"

	"confio/internal/platform"
)

// TestDoorbellSealThenRing pins the deterministic half of the seal
// contract: a ring after Seal returned charges nothing and is counted
// as stale exactly once.
func TestDoorbellSealThenRing(t *testing.T) {
	var m platform.Meter
	d := NewDoorbell(&m)
	d.Seal()
	d.Ring()
	if got := d.StaleRings(); got != 1 {
		t.Fatalf("StaleRings = %d, want 1", got)
	}
	if n := m.Snapshot().Notifications; n != 0 {
		t.Fatalf("sealed ring was metered as %d notifications, want 0", n)
	}
}

// TestDoorbellSealRingRace drives Ring and Seal concurrently (run under
// -race; see `make race-pump`): whatever the interleaving, once both
// calls have returned the racing ring was either counted stale or
// charged, never both and never neither, and a later ring is counted
// stale and charges nothing.
func TestDoorbellSealRingRace(t *testing.T) {
	for i := 0; i < 2000; i++ {
		var m platform.Meter
		d := NewDoorbell(&m)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); d.Ring() }()
		go func() { defer wg.Done(); d.Seal() }()
		wg.Wait()
		stale, charged := d.StaleRings(), m.Snapshot().Notifications
		if stale+charged != 1 {
			t.Fatalf("iteration %d: racing ring counted stale %d times and charged %d, want exactly one of them", i, stale, charged)
		}
		d.Ring() // post-seal ring on the now-quiescent bell: counted, not charged
		if got := d.StaleRings(); got != stale+1 {
			t.Fatalf("iteration %d: post-seal ring not counted stale (%d, was %d)", i, got, stale)
		}
		if got := m.Snapshot().Notifications; got != charged {
			t.Fatalf("iteration %d: post-seal ring charged (%d notifications, was %d)", i, got, charged)
		}
	}
}
