package safering

import (
	"errors"
	"fmt"
	"sync/atomic"

	"confio/internal/shmem"
)

// DescSize is the fixed descriptor size. A descriptor is self-contained:
// Len (payload bytes), Kind (payload position discriminator, fixed per
// deployment but carried for auditability), Ref (masked handle / unused).
const DescSize = 16

// Desc is the wire descriptor. It is always snapshotted out of shared
// memory in one read before any field is interpreted (single fetch).
type Desc struct {
	Len  uint32
	Kind uint32
	Ref  uint64
}

// ErrProtocol is a fatal peer-protocol violation. Per the stateless
// principle there are no recoverable interface errors: an endpoint that
// observes a violation marks itself dead and refuses further I/O.
var ErrProtocol = errors.New("safering: fatal protocol violation")

// ErrRingFull is returned by non-blocking send when the ring has no room.
var ErrRingFull = errors.New("safering: ring full")

// ErrRingEmpty is returned by non-blocking receive when no frame waits.
var ErrRingEmpty = errors.New("safering: ring empty")

// ErrFrameSize rejects frames beyond the deployment-fixed capacity.
var ErrFrameSize = errors.New("safering: frame exceeds configured capacity")

// ErrDead is returned after a fatal violation killed the endpoint.
var ErrDead = errors.New("safering: endpoint is dead after protocol violation")

// Descriptor Kind words carry two fields: the low 8 bits hold the kind
// code (KindInline/KindShared/KindIndirect) and the high 24 bits hold the
// epoch tag of the device incarnation that wrote the descriptor. Both
// sides stamp the current epoch into everything they publish and treat a
// mismatch as fatal, so a host that recorded descriptors before a
// fail-dead cannot replay them into the reincarnated ring: the old bytes
// carry the old tag. (The tag wraps at 2^24 incarnations; the recovery
// death-budget makes that unreachable long before a wrap could matter.)

// KindCode extracts the kind discriminator from a descriptor Kind word.
func KindCode(k uint32) uint32 { return k & 0xFF }

// KindEpoch extracts the epoch tag from a descriptor Kind word.
func KindEpoch(k uint32) uint32 { return k >> 8 }

// KindWord composes a Kind word from a kind code and a device epoch.
func KindWord(code, epoch uint32) uint32 { return code&0xFF | EpochTag(epoch)<<8 }

// EpochTag truncates an incarnation number to the 24-bit wire tag.
func EpochTag(epoch uint32) uint32 { return epoch & 0xFFFFFF }

// Indexes is the shared index pair of one SPSC ring. In hardware these
// are two cache lines of the shared window; here they are atomics so the
// two sides (separate goroutines) get the same publish/observe semantics
// with defined memory ordering. Either side can store any value — a
// malicious peer publishing garbage is exactly the attack surface the
// masked/checked consumers are built for.
type Indexes struct {
	//ciovet:shared the peer advances this under our feet
	prod atomic.Uint64
	//ciovet:shared the peer observes this to reclaim slots
	cons atomic.Uint64
	// evt is the consumer-published event index: "notify me when the
	// producer index crosses this value" (virtio's event-idx). It is
	// consumed by NeedEvent's wrap-compare ONLY — never as an offset, a
	// count, or a bound — so a peer publishing garbage here can shift
	// *when* a notification fires (one spurious ring, or none until the
	// watchdog notices) but can never confuse ring state.
	//ciovet:shared the peer publishes its wake threshold here
	evt atomic.Uint64
	// prodWake and consWake hold the goroutine parked on each index word:
	// an idle poller on prod, a producer awaiting completions on cons.
	prodWake, consWake wakeSlot
}

// wakeSlot holds the wake (a cap-1 chan struct{}, nil when withdrawn) of
// the goroutine parked on one index word. It is not part of the shared
// window: it stands in for a polling core noticing the store to the cache
// line it spins on, so it is unmetered and carries no protocol state.
// The poke is a hint only — a parked goroutine consumes work through the
// same validated index load as a spinning one, and bounds its wait.
type wakeSlot struct{ v atomic.Value }

// poke wakes the parked goroutine, if any. Callers store the index word
// first: see Park.
func (s *wakeSlot) poke() {
	if wake, _ := s.v.Load().(chan struct{}); wake != nil {
		select {
		case wake <- struct{}{}:
		default: // a poke is already pending: wakes coalesce
		}
	}
}

func (s *wakeSlot) set(wake chan struct{}) { s.v.Store(wake) }

// LoadProd returns the producer's published position.
func (ix *Indexes) LoadProd() uint64 { return ix.prod.Load() }

// StoreProd publishes the producer position and pokes the poller parked
// on it, if any.
func (ix *Indexes) StoreProd(v uint64) {
	ix.prod.Store(v)
	ix.prodWake.poke()
}

// Park registers wake as the poller parked on the producer index. The
// caller must then re-check LoadProd against its private tail before it
// blocks — the Dekker order Publish and the event index use: the
// producer stores prod and then loads the slot, the poller stores the
// slot and then loads prod, so one of them sees the other and no wake is
// lost.
func (ix *Indexes) Park(wake chan struct{}) { ix.prodWake.set(wake) }

// Unpark withdraws the parked wake while its poller is busy anyway.
func (ix *Indexes) Unpark() { ix.prodWake.set(nil) }

// LoadCons returns the consumer's published position.
func (ix *Indexes) LoadCons() uint64 { return ix.cons.Load() }

// StoreCons publishes the consumer position and pokes the producer
// parked on it, if any.
func (ix *Indexes) StoreCons(v uint64) {
	ix.cons.Store(v)
	ix.consWake.poke()
}

// ParkCons is Park's twin on the consumer index: it registers wake as
// the producer waiting for slots to come back. Same order, mirrored —
// the caller re-checks LoadCons against the last value it validated
// before it blocks.
func (ix *Indexes) ParkCons(wake chan struct{}) { ix.consWake.set(wake) }

// UnparkCons withdraws the wake ParkCons registered.
func (ix *Indexes) UnparkCons() { ix.consWake.set(nil) }

// LoadEvent returns the consumer's published event index.
func (ix *Indexes) LoadEvent() uint64 { return ix.evt.Load() }

// StoreEvent publishes the consumer's event index: the producer position
// whose crossing should ring the doorbell. Storing tail arms the bell;
// storing tail-1 (a value the producer can never cross next) suppresses
// it while the consumer actively polls.
func (ix *Indexes) StoreEvent(v uint64) { ix.evt.Store(v) }

// NeedEvent reports whether a producer that just advanced its published
// index from oldIdx to newIdx must notify a consumer whose event index
// is evt — virtio's event-idx predicate, on wrapping uint64 arithmetic:
// ring exactly when evt lies in [oldIdx, newIdx). The comparison is the
// ONLY way the event index is ever consumed, which is what bounds a
// lying peer to timing effects (see Indexes.evt).
func NeedEvent(evt, newIdx, oldIdx uint64) bool {
	return newIdx-evt-1 < newIdx-oldIdx
}

// Ring is one unidirectional SPSC descriptor ring: a power-of-two array
// of fixed-size slots in shared memory plus a shared index pair. It has
// no state beyond the two monotonic indexes (stateless principle); all
// policy lives in the endpoints.
type Ring struct {
	ix       Indexes
	slots    *shmem.Region
	nslots   uint64
	slotSize uint64
	// Pad to two whole cache lines. The allocator aligns an object of
	// this size to it, so the index words (and slots: line one) sit at the
	// same offsets in every run and never share a line with a neighbouring
	// ring's; unpadded, the 80 bytes straddle lines at whichever of four
	// offsets the size class hands out, and which rings then falsely share
	// differs from one run to the next (TestRingFillsWholeCacheLines).
	_ [48]byte
}

// NewRing allocates a ring with the given geometry (both powers of two).
func NewRing(nslots, slotSize int) (*Ring, error) {
	if nslots < 2 || nslots&(nslots-1) != 0 {
		return nil, fmt.Errorf("safering: slot count %d not a power of two >= 2", nslots)
	}
	if slotSize < DescSize || slotSize&(slotSize-1) != 0 {
		return nil, fmt.Errorf("safering: slot size %d not a power of two >= %d", slotSize, DescSize)
	}
	r, err := shmem.NewRegion(nslots * slotSize)
	if err != nil {
		return nil, err
	}
	return &Ring{slots: r, nslots: uint64(nslots), slotSize: uint64(slotSize)}, nil
}

// Indexes exposes the shared index pair (both sides use it; a malicious
// host writes whatever it likes here).
func (r *Ring) Indexes() *Indexes { return &r.ix }

// Slots exposes the shared slot memory (again: host-writable).
func (r *Ring) Slots() *shmem.Region { return r.slots }

// NSlots returns the slot count.
func (r *Ring) NSlots() uint64 { return r.nslots }

// SlotOff returns the masked byte offset of the slot for position idx.
// Any 64-bit idx maps to a valid slot — out-of-range is unrepresentable.
func (r *Ring) SlotOff(idx uint64) uint64 {
	return (idx & (r.nslots - 1)) * r.slotSize
}

// InlineCap is the payload capacity of one slot after the descriptor.
func (r *Ring) InlineCap() int { return int(r.slotSize) - DescSize }

// ReadDesc snapshots the descriptor at position idx in a single copy.
func (r *Ring) ReadDesc(idx uint64) Desc {
	off := r.SlotOff(idx)
	var d Desc
	d.Len = r.slots.U32(off)
	d.Kind = r.slots.U32(off + 4)
	d.Ref = r.slots.U64(off + 8)
	return d
}

// WriteDesc stores the descriptor at position idx.
func (r *Ring) WriteDesc(idx uint64, d Desc) {
	off := r.SlotOff(idx)
	r.slots.SetU32(off, d.Len)
	r.slots.SetU32(off+4, d.Kind)
	r.slots.SetU64(off+8, d.Ref)
}

// ReadInline copies n bytes of slot payload (after the descriptor) into
// dst. n is capped to the inline capacity by construction of callers; the
// underlying access is masked regardless.
func (r *Ring) ReadInline(idx uint64, dst []byte) {
	r.slots.ReadAt(dst, r.SlotOff(idx)+DescSize)
}

// WriteInline copies src into the slot payload area.
func (r *Ring) WriteInline(idx uint64, src []byte) {
	r.slots.WriteAt(src, r.SlotOff(idx)+DescSize)
}

// checkPeerProd validates a producer index published by the peer against
// the local consumer position: it must not run backwards and must not
// claim more than nslots outstanding entries. Returns the usable count.
func (r *Ring) checkPeerProd(prod, localCons uint64) (avail uint64, err error) {
	if prod < localCons {
		return 0, fmt.Errorf("%w: producer index %d behind consumer %d", ErrProtocol, prod, localCons)
	}
	if prod-localCons > r.nslots {
		return 0, fmt.Errorf("%w: producer index %d claims %d > %d outstanding",
			ErrProtocol, prod, prod-localCons, r.nslots)
	}
	return prod - localCons, nil
}

// checkPeerCons validates a consumer index published by the peer against
// the local producer position: it must not pass the producer and must not
// run backwards past what was already observed.
func (r *Ring) checkPeerCons(cons, localProd, prevCons uint64) error {
	if cons > localProd {
		return fmt.Errorf("%w: consumer index %d ahead of producer %d", ErrProtocol, cons, localProd)
	}
	if cons < prevCons {
		return fmt.Errorf("%w: consumer index %d ran backwards from %d", ErrProtocol, cons, prevCons)
	}
	return nil
}
