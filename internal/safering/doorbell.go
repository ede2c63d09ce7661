package safering

import (
	"sync/atomic"

	"confio/internal/platform"
)

// Doorbell is the optional notification primitive (§3.2 principle 3:
// prefer polling; when notifications are unavoidable, make the handler
// stateless, idempotent, and thread-safe).
//
// A doorbell carries no data and no count: it is a coalescing edge
// trigger. Ringing an already-rung doorbell is a no-op, so replayed or
// spurious notifications from a malicious peer can at most cause one
// wasted poll of the (independently validated) ring — they cannot create
// state confusion. Waiting drains the trigger and the waiter then polls
// the ring until empty, so a lost wake while processing is also harmless.
type Doorbell struct {
	ch    chan struct{}
	meter *platform.Meter
	// sealed disarms the doorbell forever: rebirth seals the old
	// incarnation's bells so a host still holding them cannot ring the
	// new device awake. Stale rings are counted, not acted on.
	sealed atomic.Bool
	stale  atomic.Uint64
	// fan is a host poller's wake that every ring pokes too (see
	// HostPort.SetTXWake): a hint, never state, like the trigger.
	fan wakeSlot
}

// NewDoorbell returns an unarmed doorbell; meter may be nil.
func NewDoorbell(meter *platform.Meter) *Doorbell {
	return &Doorbell{ch: make(chan struct{}, 1), meter: meter}
}

// Ring arms the doorbell. Safe from any goroutine; never blocks.
// Each ring is a boundary notification in the cost model (interrupt
// injection / doorbell MMIO exit). Ringing a sealed doorbell is a
// counted no-op: the old incarnation's bell cannot wake the new device.
func (d *Doorbell) Ring() {
	if d.sealed.Load() {
		d.stale.Add(1)
		return
	}
	d.meter.Notify(1)
	select {
	case d.ch <- struct{}{}:
	default:
	}
	d.fan.poke()
	// Close the Seal race: a Ring that passed the sealed check above can
	// deposit its trigger after Seal stored the flag, arming a bell that
	// is supposed to be dead forever. Re-checking after the deposit —
	// paired with Seal's own drain — guarantees that once Seal returns
	// and every in-flight Ring has returned, the channel is empty: either
	// this load sees the seal and retracts, or Seal's drain (which
	// happens after the flag store) swallowed the trigger.
	if d.sealed.Load() {
		select {
		case <-d.ch:
		default:
		}
		d.stale.Add(1)
	}
}

// TryWait reports whether the doorbell was rung, without blocking.
func (d *Doorbell) TryWait() bool {
	select {
	case <-d.ch:
		return true
	default:
		return false
	}
}

// Chan exposes the trigger for select loops.
func (d *Doorbell) Chan() <-chan struct{} { return d.ch }

// Seal permanently disarms the doorbell (nil-safe; idempotent). Called
// on the old incarnation's bells at rebirth. After Seal returns (and
// every concurrently running Ring has returned) the trigger channel is
// guaranteed empty: a waiter on the sealed bell can never be woken by a
// stale ring.
func (d *Doorbell) Seal() {
	if d == nil {
		return
	}
	d.sealed.Store(true)
	// Drain the trigger a racing Ring may have deposited between its
	// sealed check and the store above (see Ring's mirror re-check).
	select {
	case <-d.ch:
	default:
	}
}

// StaleRings reports how many rings arrived after Seal — an audit
// counter for hosts that keep ringing a dead incarnation.
func (d *Doorbell) StaleRings() uint64 {
	if d == nil {
		return 0
	}
	return d.stale.Load()
}
