package safering

import (
	"sync/atomic"

	"confio/internal/nic"
	"confio/internal/platform"
)

// This file is the consumer half beside engine.go's producer: the
// guest's RX-used ring, the host's TX and RX-free rings and blkring's
// request ring each have one consumer, and every one of them reads,
// validates and hands back its peer's producer index here. The safety
// rules for that index — one validated load per poll, one metered check
// per poll (Idle's and Park's loads are only compared for equality and
// consume nothing), masked slot positions, fail-dead on a producer that runs backwards or
// claims more than the ring holds, one consumer-index store per batch —
// are written once. What a slot holds, and how it is validated, is the
// owner's business, expressed through the take callback of Drain.

// Consumer is the generic consumer half of one SPSC safe ring: a private
// tail, never derived from shared memory, and the one place the peer's
// producer index is loaded, checked and answered. Any violation is fatal
// through the fail hook — there are no recoverable interface errors.
//
// Owners hold it by value (its tail is stored every burst, so it lives
// in the owner's lines). Not self-locking: the owner's mutex serializes
// every call but Idle.
type Consumer struct {
	// ring is atomic so that Idle reads it without the owner's lock
	// while Reset republishes it at a rebirth.
	ring  atomic.Pointer[Ring]
	meter *platform.Meter
	// fail records a fatal protocol violation on the owning device and
	// returns the error the call reports, as EngineHooks.Fail does.
	fail func(error) error
	// tail is the next slot to consume: private, never derived from
	// shared memory, written under the owner's lock once per burst and
	// atomic only so that Idle can compare against it.
	tail atomic.Uint64
}

// Init makes c the consumer of ring, at slot 0. meter may be nil.
func (c *Consumer) Init(ring *Ring, meter *platform.Meter, fail func(error) error) {
	c.meter, c.fail = meter, fail
	c.Reset(ring)
}

// Idle is the empty poll without the owner's lock: one load of the
// peer's producer index, compared with the private tail — never with a
// word the peer can write. True means nothing waits, and charges the
// check an empty Drain charges; false means poll under the lock. It
// consumes nothing: Drain stays the one validated path.
func (c *Consumer) Idle() bool {
	if c.ring.Load().ix.LoadProd() != c.tail.Load() {
		return false
	}
	c.meter.Check(1)
	return true
}

// idlePoll answers a poll of c on the device life belongs to before the
// owner's lock when it can: the dead device's error, or nic.ErrEmpty.
// nil means slots may wait.
func idlePoll(life *Life, c *Consumer) error {
	if err := life.DeadOp(); err != nil || !c.Idle() {
		return err
	}
	return nic.ErrEmpty
}

// Drain loads the peer's producer index once, with one metered check,
// and hands up to max waiting slots to take in ring order: i is the
// slot's place in this batch, pos its ring position. A nil return
// consumes the slot. Every slot consumed is handed back with one
// consumer-index store, also when take fails: its error is a fatal
// violation, routed through the fail hook and returned with the count
// consumed before it. An empty ring costs the load, the check and one
// compare, and returns (0, nil); Idle answers the same poll without
// the lock.
//
//ciovet:locked
func (c *Consumer) Drain(max int, take func(i int, pos uint64) error) (int, error) {
	ring, tail := c.ring.Load(), c.tail.Load()
	prod := ring.ix.LoadProd()
	c.meter.Check(1)
	if prod == tail {
		return 0, nil
	}
	avail, err := ring.checkPeerProd(prod, tail)
	if err != nil {
		return 0, c.fail(err)
	}
	n := 0
	for n < max && uint64(n) < avail {
		if err = take(n, tail); err != nil {
			err = c.fail(err)
			break
		}
		tail++
		n++
	}
	if n > 0 {
		c.tail.Store(tail)
		ring.ix.StoreCons(tail)
		c.meter.Publish(1)
	}
	return n, err
}

// Park registers wake as the poller parked on the producer index, then
// re-checks the index against the tail and reports whether slots
// already wait: true means poll again, don't block. Register first,
// re-check second — Indexes.Park's Dekker order, so no wake is lost.
// The raw index is only a boolean hint here; consuming it still goes
// through Drain's validated load.
//
//ciovet:locked
func (c *Consumer) Park(wake chan struct{}) bool {
	c.ring.Load().ix.Park(wake)
	return c.ring.Load().ix.LoadProd() != c.tail.Load()
}

// Unpark withdraws the parked wake while the poller is busy anyway.
//
//ciovet:locked
func (c *Consumer) Unpark() { c.ring.Load().ix.Unpark() }

// Arm publishes the event index at the tail — "notify me when your next
// publication crosses my position" (virtio's event-idx) — parks wake on
// the producer index when it is non-nil, and re-checks like Park: the
// mirror of Engine.Publish's store-prod-then-load-evt.
//
//ciovet:locked
func (c *Consumer) Arm(wake chan struct{}) bool {
	c.ring.Load().ix.StoreEvent(c.tail.Load())
	if wake != nil {
		return c.Park(wake)
	}
	return c.ring.Load().ix.LoadProd() != c.tail.Load()
}

// Suppress moves the event index to tail-1, a value the producer's next
// publication can never cross, while the consumer actively polls.
//
//ciovet:locked
func (c *Consumer) Suppress() { c.ring.Load().ix.StoreEvent(c.tail.Load() - 1) }

// Reset rebinds the consumer to a fresh ring at reincarnation.
//
//ciovet:locked
func (c *Consumer) Reset(ring *Ring) {
	c.ring.Store(ring)
	c.tail.Store(0)
}
