package safering

import (
	"confio/internal/platform"
)

// This file is the consumer half beside engine.go's producer: the
// guest's RX-used ring, the host's TX and RX-free rings and blkring's
// request ring each have one consumer, and every one of them reads,
// validates and hands back its peer's producer index here. The safety
// rules for that index — one load per poll, one metered check per load,
// masked slot positions, fail-dead on a producer that runs backwards or
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
// all calls.
type Consumer struct {
	ring  *Ring
	meter *platform.Meter
	// fail records a fatal protocol violation on the owning device and
	// returns the error the call reports, as EngineHooks.Fail does.
	fail func(error) error
	tail uint64 // next slot to consume
}

// NewConsumer builds the consumer of ring. meter may be nil.
func NewConsumer(ring *Ring, meter *platform.Meter, fail func(error) error) Consumer {
	return Consumer{ring: ring, meter: meter, fail: fail}
}

// Drain loads the peer's producer index once, with one metered check,
// and hands up to max waiting slots to take in ring order: i is the
// slot's place in this batch, pos its ring position. A nil return
// consumes the slot. Every slot consumed is handed back with one
// consumer-index store, also when take fails: its error is a fatal
// violation, routed through the fail hook and returned with the count
// consumed before it. An empty ring costs the load, the check and one
// compare, and returns (0, nil).
//
//ciovet:locked
func (c *Consumer) Drain(max int, take func(i int, pos uint64) error) (int, error) {
	prod := c.ring.ix.LoadProd()
	c.meter.Check(1)
	if prod == c.tail {
		return 0, nil
	}
	avail, err := c.ring.checkPeerProd(prod, c.tail)
	if err != nil {
		return 0, c.fail(err)
	}
	n := 0
	for n < max && uint64(n) < avail {
		if err = take(n, c.tail); err != nil {
			err = c.fail(err)
			break
		}
		c.tail++
		n++
	}
	if n > 0 {
		c.ring.ix.StoreCons(c.tail)
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
	c.ring.ix.Park(wake)
	return c.ring.ix.LoadProd() != c.tail
}

// Unpark withdraws the parked wake while the poller is busy anyway.
//
//ciovet:locked
func (c *Consumer) Unpark() { c.ring.ix.Unpark() }

// Arm publishes the event index at the tail — "notify me when your next
// publication crosses my position" (virtio's event-idx) — parks wake on
// the producer index when it is non-nil, and re-checks like Park: the
// mirror of Engine.Publish's store-prod-then-load-evt.
//
//ciovet:locked
func (c *Consumer) Arm(wake chan struct{}) bool {
	c.ring.ix.StoreEvent(c.tail)
	if wake != nil {
		return c.Park(wake)
	}
	return c.ring.ix.LoadProd() != c.tail
}

// Suppress moves the event index to tail-1, a value the producer's next
// publication can never cross, while the consumer actively polls.
//
//ciovet:locked
func (c *Consumer) Suppress() { c.ring.ix.StoreEvent(c.tail - 1) }

// Reset rebinds the consumer to a fresh ring at reincarnation.
//
//ciovet:locked
func (c *Consumer) Reset(ring *Ring) { c.ring, c.tail = ring, 0 }
