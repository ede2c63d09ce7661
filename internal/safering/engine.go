package safering

import (
	"errors"

	"confio/internal/nic"
	"confio/internal/platform"
)

// This file is the payload-generic producer engine every safe device
// class instantiates: the network endpoint runs its TX descriptor ring
// and its RX free-slab ring on it, and blkring runs its request ring on
// it. The engine owns exactly the state and validation the SPSC safety
// argument needs — a private monotonic head, the last validated peer
// consumer index, bounded in-flight accounting, and the single metered
// check per validated load — so every hardening rule (masked indexes,
// monotonic index validation, fail-dead on violation, batched
// publication) is written once and inherited by every device class
// instead of re-implemented per ring.
//
// The engine is the *producer* half: it stages payloads, publishes them
// with one index store per batch, and observes the peer's consumer
// index to learn when slot ownership returns. What a returned slot
// means — "transmit buffer consumed, free its slabs" for the NIC,
// "request completed in place, validate the status word" for the block
// ring — is the owner's business, expressed through the OnReturn hook.
// The consumer half beside it is consumer.go's Consumer: every ring has
// one of each, and both halves validate the index their peer publishes.

// Codec encodes one payload descriptor into its ring slot. Implementors
// define the slot layout for their device class (the NIC's 16-byte Desc,
// blkring's 32-byte request); the engine never interprets slot bytes
// itself.
type Codec[D any] interface {
	Encode(r *Ring, idx uint64, d D)
}

// EngineHooks are the owner-supplied policies of one engine instance.
// Both hooks are invoked with the owner's lock held (the engine is not
// self-locking — the owner's mutex serializes every call, matching the
// endpoint convention).
type EngineHooks[D any] struct {
	// OnReturn is called exactly once per slot whose ownership the peer
	// returned, in ring order, with the payload staged there. A non-nil
	// error is a fatal protocol violation (the returned slot failed
	// validation) and is routed through Fail.
	OnReturn func(pos uint64, d D) error
	// Fail records a fatal protocol violation on the owning device and
	// returns the error all later operations report.
	Fail func(error) error
}

// Engine is the generic producer half of one SPSC safe ring. It trusts
// nothing it reads from shared memory: the peer's consumer index is
// monotonicity- and bounds-checked on every load, slot positions are
// masked by construction, and any violation is fatal through the Fail
// hook — there are no recoverable interface errors.
//
// Not self-locking: the owner's mutex serializes all calls.
type Engine[D any] struct {
	ring  *Ring
	bell  *Doorbell
	codec Codec[D]
	meter *platform.Meter
	hooks EngineHooks[D]

	// eventIdx, when set, gates the doorbell on the peer's published
	// event index (virtio event-idx): Publish rings only when the new
	// producer position crosses the threshold the consumer asked to be
	// woken at. Deployment-fixed, like every protocol parameter — both
	// sides agree at construction, nothing is negotiated.
	eventIdx bool

	// Private state, never derived from shared memory.
	head     uint64 // next slot to stage
	pub      uint64 // head value last published to the peer
	consSeen uint64 // last validated peer consumer index
	freed    uint64 // slots whose return has been processed
	// inflight parks each staged payload until the peer returns its
	// slot; preallocated so the steady state allocates nothing.
	inflight []D
}

// NewEngine builds an engine over one ring. bell may be nil (polling
// mode); meter may be nil.
func NewEngine[D any](ring *Ring, bell *Doorbell, codec Codec[D], meter *platform.Meter, hooks EngineHooks[D]) *Engine[D] {
	return &Engine[D]{
		ring:     ring,
		bell:     bell,
		codec:    codec,
		meter:    meter,
		hooks:    hooks,
		inflight: make([]D, ring.NSlots()),
	}
}

// SetEventIdx enables (or disables) event-idx notification suppression
// for this engine's doorbell. Call at construction time, before traffic;
// the setting survives Reset — it is part of the deployment contract,
// not of one incarnation.
func (g *Engine[D]) SetEventIdx(on bool) { g.eventIdx = on }

// Head returns the private producer head (staged, not necessarily
// published). The watchdog compares it against the shared consumer
// index — equality only, so no trust in the shared value is needed.
//
//ciovet:locked
func (g *Engine[D]) Head() uint64 { return g.head }

// ConsSeen returns the last validated peer consumer index.
func (g *Engine[D]) ConsSeen() uint64 { return g.consSeen }

// Full reports whether the ring has no free slot at the validated
// consumer position cons — the backpressure check a producer must make
// before staging, or it laps the consumer and overwrites a slot the
// peer still owns.
//
//ciovet:locked
func (g *Engine[D]) Full(cons uint64) bool {
	return g.head-cons >= g.ring.NSlots()
}

// Reap loads and validates the peer's consumer index and invokes
// OnReturn for every slot whose ownership came back, in order. Exactly
// one validation check is metered per index load, however many slots
// returned. It returns the validated consumer index.
//
//ciovet:locked
func (g *Engine[D]) Reap() (uint64, error) {
	cons := g.ring.Indexes().LoadCons()
	g.meter.Check(1)
	if err := g.ring.checkPeerCons(cons, g.head, g.consSeen); err != nil {
		return 0, g.hooks.Fail(err)
	}
	g.consSeen = cons
	for ; g.freed < cons; g.freed++ {
		idx := g.freed & (g.ring.NSlots() - 1)
		if g.hooks.OnReturn != nil {
			if err := g.hooks.OnReturn(g.freed, g.inflight[idx]); err != nil {
				return 0, g.hooks.Fail(err)
			}
		}
		var zero D
		g.inflight[idx] = zero
	}
	return cons, nil
}

// ReapIfMoved reaps only when the raw consumer index differs from the
// last validated value. The pre-check is an equality compare against a
// private copy — like the watchdog's, it needs no trust and no metered
// check — so completion-poll loops cost one validation per *validated
// load* instead of one per spin, however slow the host is. It returns
// the validated consumer index and whether a reap ran.
//
//ciovet:locked
func (g *Engine[D]) ReapIfMoved() (uint64, bool, error) {
	if g.ring.Indexes().LoadCons() == g.consSeen {
		return g.consSeen, false, nil
	}
	cons, err := g.Reap()
	return cons, err == nil, err
}

// StageBatch is the producer's batch: it reaps, then calls stage(i) for
// i = 0 .. n-1 while the ring has room, and publishes the accepted
// payloads with one index store and at most one doorbell. stage stages
// one payload (through Stage) or fails: nic.ErrFull — the owner's data
// area is exhausted — ends the batch short; any other error publishes
// what was accepted and is returned with its count. It returns how many
// payloads were accepted; (0, nic.ErrFull) when none fit.
//
//ciovet:locked
func (g *Engine[D]) StageBatch(n int, stage func(i int) error) (int, error) {
	cons, err := g.Reap()
	if err != nil {
		return 0, err
	}
	i := 0
	for ; i < n && !g.Full(cons); i++ {
		if err := stage(i); err != nil {
			if errors.Is(err, nic.ErrFull) {
				break
			}
			g.Publish() // the payloads already accepted; a no-op when none
			return i, err
		}
	}
	if i == 0 {
		return 0, nic.ErrFull
	}
	g.Publish()
	return i, nil
}

// Stage encodes d into the slot at the private head and parks the
// payload until the peer returns the slot. It does not publish; callers
// amortize the index store and doorbell over a batch via Publish. The
// caller must have established room via Full — Stage itself never
// consults shared memory.
//
//ciovet:locked
func (g *Engine[D]) Stage(d D) {
	g.codec.Encode(g.ring, g.head, d)
	g.inflight[g.head&(g.ring.NSlots()-1)] = d
	g.head++
}

// Publish makes every staged-but-unpublished slot visible to the peer
// with one index store and at most one doorbell ring. A no-op when
// nothing new was staged.
//
// Under event-idx the ring is further gated on the peer's published
// wake threshold. The store/load order matters: the producer index is
// stored BEFORE the event index is loaded, and the consumer arms by
// storing its event index BEFORE re-checking the producer index — with
// sequentially consistent atomics one of the two sides must see the
// other's store, so a wakeup is never lost in the arming window. The
// event index itself is untrusted: it feeds NeedEvent's wrap-compare
// and nothing else, so garbage there shifts wake timing (recovered by
// the peer's bounded-sleep ladder and, ultimately, the watchdog) but
// can never corrupt state.
//
//ciovet:locked
func (g *Engine[D]) Publish() {
	if g.pub == g.head {
		return
	}
	old := g.pub
	g.ring.Indexes().StoreProd(g.head)
	g.pub = g.head
	g.meter.Publish(1)
	if g.bell == nil {
		return
	}
	if g.eventIdx && !NeedEvent(g.ring.Indexes().LoadEvent(), g.head, old) {
		g.meter.NotifySuppressed(1)
		return
	}
	g.bell.Ring()
}

// Reset rebinds the engine to a fresh ring (and doorbell) at
// reincarnation, zeroing all private protocol state. Payloads still
// parked for the old incarnation are dropped: their slots belonged to
// the poisoned window and whatever they referenced vanishes with it.
//
//ciovet:locked
func (g *Engine[D]) Reset(ring *Ring, bell *Doorbell) {
	g.ring, g.bell = ring, bell
	g.head, g.pub, g.consSeen, g.freed = 0, 0, 0, 0
	for i := range g.inflight {
		var zero D
		g.inflight[i] = zero
	}
}
