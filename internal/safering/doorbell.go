package safering

import (
	"sync/atomic"

	"confio/internal/platform"
)

// Doorbell is the optional notification primitive (§3.2 principle 3:
// prefer polling; when notifications are unavoidable, make the handler
// stateless, idempotent, and thread-safe).
//
// A doorbell carries no data, no count and no trigger: ringing it is the
// cost model's price of one boundary notification (interrupt injection
// / doorbell MMIO exit), nothing more. What wakes an idle consumer is
// the producer's index store (Indexes.Park), so replayed or spurious
// rings from a malicious peer can at most charge the meter — they wake
// nobody and cannot create state confusion.
type Doorbell struct {
	meter *platform.Meter
	// sealed disarms the doorbell forever: rebirth seals the old
	// incarnation's bells so a host still holding them cannot charge
	// the new device. Stale rings are counted, not acted on.
	sealed atomic.Bool
	stale  atomic.Uint64
}

// NewDoorbell returns a doorbell that charges meter; meter may be nil.
func NewDoorbell(meter *platform.Meter) *Doorbell {
	return &Doorbell{meter: meter}
}

// Ring charges one notification. Safe from any goroutine; never blocks.
// Ringing a sealed doorbell is a counted no-op: the old incarnation's
// bell charges nothing.
func (d *Doorbell) Ring() {
	if d.sealed.Load() {
		d.stale.Add(1)
		return
	}
	d.meter.Notify(1)
}

// Seal permanently disarms the doorbell (nil-safe; idempotent). Called
// on the old incarnation's bells at rebirth: every Ring that starts
// after Seal returns is counted stale and charges nothing.
func (d *Doorbell) Seal() {
	if d == nil {
		return
	}
	d.sealed.Store(true)
}

// StaleRings reports how many rings arrived after Seal — an audit
// counter for hosts that keep ringing a dead incarnation.
func (d *Doorbell) StaleRings() uint64 {
	if d == nil {
		return 0
	}
	return d.stale.Load()
}
