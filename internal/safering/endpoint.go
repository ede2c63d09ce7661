package safering

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"confio/internal/platform"
	"confio/internal/shmem"
)

// Descriptor Kind values. The mode is fixed at deployment; the kind is
// still carried in every descriptor so that a mismatch is detectable
// (auditability), not because the receiver switches behaviour on it. On
// TX the code is the DataMode value itself (TestKindCodesAreDataModes).
const (
	KindInline   = 0
	KindShared   = 1
	KindIndirect = 2
)

// descCodec encodes the NIC's 16-byte descriptor into its ring slot;
// both the TX and RX-free producer engines use it.
type descCodec struct{}

func (descCodec) Encode(r *Ring, idx uint64, d Desc) { r.WriteDesc(idx, d) }

// Endpoint is the guest-TEE side of a safe NIC instance. It is safe for
// concurrent use; internally one mutex serializes TX state and another RX
// state, matching one queue pair.
//
// Endpoint trusts nothing it reads from shared memory: every peer index
// is bounds/monotonicity-checked, every descriptor is snapshotted once
// and validated, and any violation is fatal (ErrProtocol wrapped), after
// which all operations return ErrDead. There are no recoverable interface
// errors and no renegotiation — the stateless principle.
type Endpoint struct {
	// cfg is the deployment-fixed configuration, identical across
	// incarnations: lock-free readers use it instead of e.sh, which
	// Swap/Reincarnate replace under mu.
	cfg   DeviceConfig
	sh    *Shared
	meter *platform.Meter
	// life is the fail-dead state of the device this endpoint is a queue
	// of (the only one, or one of several): a violation on any sibling
	// queue kills this one too, and vice versa.
	life *Life

	mu sync.Mutex

	// tx is the generic producer engine driving the TX ring: private
	// head/consumer accounting, backpressure, batched publication and
	// monotonic index validation all live there (see engine.go). The
	// slab handle staged per slot stays here — what a returned slot
	// means is this endpoint's business, expressed via txReturn.
	tx        *Engine[Desc] //ciovet:guards mu
	txHandles []shmem.Handle

	// rxFree is the producer engine for the RXFree ring (posting empty
	// receive slabs to the host); nil in Inline mode.
	rxFree *Engine[Desc] //ciovet:guards mu

	// RX private state.
	rxTail   uint64
	slabHeld []bool // true while the host holds the slab

	// pool recycles private receive buffers; framePool recycles RxFrame
	// headers. Both store pointers so steady-state Get/Put never boxes a
	// value into an interface (the allocation-free hot path).
	pool      sync.Pool
	framePool sync.Pool
}

// txStageFault, when non-nil, injects a failure into the slab TX
// staging path after the slab has been allocated. Test hook only (the
// arena cannot fail a write to a freshly allocated slab of a size-checked
// frame); always nil outside tests.
var txStageFault func() error

// New constructs the guest endpoint and all shared device state for cfg.
// The meter may be nil.
func New(cfg DeviceConfig, meter *platform.Meter) (*Endpoint, error) {
	return newEndpoint(cfg, meter, NewLife(ErrDead))
}

// newEndpoint constructs one queue of the device life belongs to.
func newEndpoint(cfg DeviceConfig, meter *platform.Meter, life *Life) (*Endpoint, error) {
	sh, err := newShared(cfg, meter, 0)
	if err != nil {
		return nil, err
	}
	e := &Endpoint{cfg: cfg, sh: sh, meter: meter, life: life}
	life.Join(&e.mu, meter, e.rebirthLocked)
	e.tx = NewEngine[Desc](sh.TX, sh.TXBell, descCodec{}, meter,
		EngineHooks[Desc]{OnReturn: e.txReturn, Fail: e.fail})
	e.tx.SetEventIdx(cfg.EventIdx)
	e.pool.New = func() any {
		b := make([]byte, cfg.FrameCap())
		return &b
	}
	e.framePool.New = func() any { return new(RxFrame) }

	if cfg.Mode != Inline {
		e.txHandles = make([]shmem.Handle, cfg.Slots)
		e.slabHeld = make([]bool, cfg.Slots)
		e.rxFree = NewEngine[Desc](sh.RXFree, nil, descCodec{}, meter,
			EngineHooks[Desc]{Fail: e.fail})
		// Post every receive slab to the host up front; the whole set is
		// published with a single index store.
		for slab := 0; slab < cfg.Slots; slab++ {
			e.stageSlabLocked(slab)
		}
		e.publishFreeLocked()
	}
	return e, nil
}

// Shared exposes the host-visible state; the device model (or the attack
// harness) drives the other side through it. After a Swap it returns the
// new instance.
func (e *Endpoint) Shared() *Shared {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sh
}

// Config returns the immutable device configuration.
func (e *Endpoint) Config() DeviceConfig { return e.cfg }

// Dead returns the fatal error that killed the endpoint, if any. On a
// multi-queue device a violation on any sibling queue counts: the whole
// device fail-deads together.
func (e *Endpoint) Dead() error { return e.life.Dead() }

// Epoch returns the current device incarnation.
func (e *Endpoint) Epoch() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sh.Epoch
}

// fail records the fatal violation and returns the device's first
// cause: on a multi-queue device concurrent killers are arbitrated by the
// latch, so every queue — including the ones that lost the race — reports
// the same cause from then on.
func (e *Endpoint) fail(err error) error { return e.life.Kill(err, e.meter) }

// checkFrame validates a frame size against the fixed geometry.
func (e *Endpoint) checkFrame(frame []byte) error {
	if len(frame) > e.cfg.FrameCap() {
		return fmt.Errorf("%w: %d > %d", ErrFrameSize, len(frame), e.cfg.FrameCap())
	}
	if len(frame) == 0 {
		return fmt.Errorf("%w: empty frame", ErrFrameSize)
	}
	return nil
}

// Send enqueues one Ethernet frame for transmission: SendBatch of one.
// It never blocks: ErrRingFull asks the caller to retry after the host
// makes progress.
func (e *Endpoint) Send(frame []byte) error {
	one := [1][]byte{frame}
	_, err := e.SendBatch(one[:])
	return err
}

// SendBatch enqueues up to len(frames) frames, taking the lock, reaping
// completions and validating the host's consumer index once, and
// publishing the producer index + doorbell once for the whole batch. It
// returns how many frames were accepted (and published). A full ring or
// exhausted data area ends the batch early with n < len(frames) and a nil
// error; (0, ErrRingFull) means nothing fit. Fail-dead semantics are
// unchanged: a fatal error publishes and reports the frames already
// accepted, and every later call returns ErrDead.
func (e *Endpoint) SendBatch(frames [][]byte) (int, error) {
	for _, f := range frames {
		if err := e.checkFrame(f); err != nil {
			return 0, err
		}
	}
	if len(frames) == 0 {
		return 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.DeadOp(); err != nil {
		return 0, err
	}
	cons, err := e.tx.Reap()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range frames {
		if e.tx.Full(cons) {
			break
		}
		if serr := e.stageTXLocked(f); serr != nil {
			if errors.Is(serr, ErrRingFull) { // data area exhausted: partial batch
				break
			}
			e.tx.Publish() // the frames already accepted; a no-op when none
			return n, serr
		}
		n++
	}
	if n == 0 {
		return 0, ErrRingFull
	}
	e.tx.Publish()
	return n, nil
}

// stageTXLocked stages one size-checked frame into the slot at the TX
// engine's head. It does not publish: callers amortize the index store
// and doorbell over a batch via the engine's Publish.
//
//ciovet:locked
func (e *Endpoint) stageTXLocked(frame []byte) error {
	head := e.tx.Head()
	d := Desc{Len: uint32(len(frame)), Kind: KindWord(uint32(e.cfg.Mode), e.sh.Epoch)}
	if e.cfg.Mode == Inline {
		e.sh.TX.WriteInline(head, frame)
		e.meter.Copy(len(frame))
		e.tx.Stage(d)
		return nil
	}
	// SharedArea and Indirect: the frame fills exactly one slab (Validate
	// bounds FrameCap by the page, newShared sizes slabs at least FrameCap).
	h, aerr := e.sh.TXData.Alloc()
	if aerr != nil {
		return ErrRingFull
	}
	werr := e.sh.TXData.Write(h, frame)
	if werr == nil && txStageFault != nil {
		werr = txStageFault()
	}
	if werr != nil {
		// Return the slab before surfacing the error; leaking the
		// handle here would shrink the data area by one slab per
		// failed send until TX wedges at ErrRingFull.
		_ = e.sh.TXData.HandleFree(shmem.FreeMsg{H: h})
		return fmt.Errorf("safering: tx stage: %w", werr)
	}
	e.meter.Copy(len(frame))
	idx := head & (e.sh.TX.NSlots() - 1)
	//ciovet:transfers the slot table owns the slab until txReturn frees it on host consumption
	e.txHandles[idx] = h
	d.Ref = uint64(h)
	if e.cfg.Mode == Indirect {
		// One table hop: the descriptor names the slot's entry, the entry
		// names the slab (layout at indEntrySize).
		entry := idx * indEntrySize
		e.sh.TXInd.SetU64(entry, 1)
		e.sh.TXInd.SetU64(entry+16, uint64(h))
		e.sh.TXInd.SetU64(entry+24, uint64(len(frame)))
		d.Ref = idx
	}
	e.tx.Stage(d)
	return nil
}

// txReturn is the TX engine's OnReturn hook: the host consumed the slot
// at pos, so its data slab comes home (Inline has none). Caller (the
// engine, under e.mu) guarantees in-order, exactly-once delivery.
func (e *Endpoint) txReturn(pos uint64, _ Desc) error {
	if e.cfg.Mode == Inline {
		return nil
	}
	// The handle came from our private record, so a free failure means
	// our own state is corrupt — fatal.
	h := e.txHandles[pos&(e.sh.TX.NSlots()-1)]
	if err := e.sh.TXData.HandleFree(shmem.FreeMsg{H: h}); err != nil {
		return fmt.Errorf("%w: tx slab free: %v", ErrProtocol, err)
	}
	return nil
}

// Reap frees completed transmit buffers without sending. Callers that
// stop sending but want timely slab reuse may call it periodically.
func (e *Endpoint) Reap() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.DeadOp(); err != nil {
		return err
	}
	_, err := e.tx.Reap()
	return err
}

// RxFrame is one received Ethernet frame. Bytes stays valid until
// Release. Depending on policy the bytes are a private copy (CopyOut) or
// a revoked — host-inaccessible — shared page used in place (Revoke).
//
// Frame headers are recycled through the endpoint's pool: after Release
// the frame may be reused by a later Recv, so callers must not retain or
// re-release the pointer past their first Release (the usual buffer-pool
// ownership contract; concurrent duplicate Releases of a still-live
// frame remain safe via the CAS guard).
type RxFrame struct {
	ep       *Endpoint
	sh       *Shared // device instance the frame came from (hot-swap safety)
	data     []byte
	pooled   *[]byte // backing buffer to return to the pool, if any
	slab     int     // revoked slab to re-share on release, or -1
	released atomic.Bool
}

// Bytes returns the frame contents.
func (f *RxFrame) Bytes() []byte { return f.data }

// Release returns the frame's backing storage (pool buffer or revoked
// page) and its header for reuse. It is idempotent while the frame is
// live and safe to call from concurrent goroutines: exactly one caller
// performs the release.
func (f *RxFrame) Release() {
	if !f.released.CompareAndSwap(false, true) {
		return
	}
	ep := f.ep
	if f.pooled != nil {
		*f.pooled = (*f.pooled)[:cap(*f.pooled)]
		ep.pool.Put(f.pooled)
		f.pooled = nil
	}
	if f.slab >= 0 {
		ep.mu.Lock()
		// After a hot-swap the old device instance is gone and the new
		// one already has every slab posted; only release into the
		// instance the frame came from.
		if ep.sh == f.sh {
			ep.sh.RXData.Reshare(uint64(f.slab)*platform.PageSize, platform.PageSize)
			ep.postSlab(f.slab)
		}
		ep.mu.Unlock()
	}
	f.data = nil
	f.sh = nil
	// Recycle the header last: after the Put the frame may be handed out
	// again by a concurrent Recv, so nothing touches f beyond this line.
	ep.framePool.Put(f)
}

// newFrameLocked hands out a recycled (or fresh) RxFrame header with the
// given contents. The released flag is re-armed here, before the frame
// becomes visible to the caller.
//
//ciovet:locked
func (e *Endpoint) newFrameLocked(data []byte, pooled *[]byte, slab int) *RxFrame {
	f := e.framePool.Get().(*RxFrame)
	f.ep = e
	f.sh = e.sh
	f.data = data
	f.pooled = pooled
	f.slab = slab
	f.released.Store(false)
	return f
}

// stageSlabLocked records one empty receive slab in the free ring without
// publishing it; publishFreeLocked makes the staged set visible with one
// index store. Audited sanitized: every slab number reaching here was
// either generated by the guest (the initial posting loop) or masked
// with Slots-1 AND checked against slabHeld in recvSlotLocked before the
// RxFrame carrying it was handed out — the cross-package taint fact on
// RxFrame is coarser than the value it tracks.
//
//ciovet:locked
//ciovet:sanitized
func (e *Endpoint) stageSlabLocked(slab int) {
	e.slabHeld[slab] = true
	e.rxFree.Stage(Desc{Len: platform.PageSize, Kind: KindWord(KindShared, e.sh.Epoch), Ref: uint64(slab)})
}

// publishFreeLocked publishes every staged-but-unpublished receive slab
// (a no-op inside the engine when nothing new was staged; no free ring
// exists in Inline mode).
//
//ciovet:locked
func (e *Endpoint) publishFreeLocked() {
	if e.rxFree != nil {
		e.rxFree.Publish()
	}
}

// postSlab publishes one empty receive slab to the host. Caller holds
// e.mu.
func (e *Endpoint) postSlab(slab int) {
	e.stageSlabLocked(slab)
	e.publishFreeLocked()
}

// rxAvailLocked loads and validates the host's RXUsed producer index,
// returning how many completed frames wait past rxTail.
//
//ciovet:locked
func (e *Endpoint) rxAvailLocked() (uint64, error) {
	prod := e.sh.RXUsed.Indexes().LoadProd()
	e.meter.Check(1)
	avail, err := e.sh.RXUsed.checkPeerProd(prod, e.rxTail)
	if err != nil {
		return 0, e.fail(err)
	}
	return avail, nil
}

// publishRXLocked publishes the consumer index for every frame consumed
// since the last publication, plus any receive slabs staged for
// reposting — one index store each, however many frames the batch moved.
//
//ciovet:locked
func (e *Endpoint) publishRXLocked() {
	e.sh.RXUsed.Indexes().StoreCons(e.rxTail)
	e.meter.Publish(1)
	e.publishFreeLocked()
}

// recvSlotLocked validates and consumes the completion at rxTail (which
// the caller has established to be available), moving the payload into
// guest custody per the configured policy. The descriptor is snapshotted
// exactly once. The private tail advances but nothing is published;
// callers amortize the consumer-index store via publishRXLocked.
//
//ciovet:locked
func (e *Endpoint) recvSlotLocked() (*RxFrame, error) {
	d := e.sh.RXUsed.ReadDesc(e.rxTail) // single snapshot
	e.meter.Check(1)

	// The kind word must carry the expected kind code AND the current
	// device epoch: a descriptor recorded before a reincarnation carries
	// the old tag, so a host replaying the previous incarnation's ring
	// into this one dies here rather than confusing the new instance.
	want := uint32(KindShared)
	if e.cfg.Mode == Inline {
		want = KindInline
	}
	if KindCode(d.Kind) != want || KindEpoch(d.Kind) != EpochTag(e.sh.Epoch) {
		return nil, e.fail(fmt.Errorf("%w: rx descriptor kind %#x (want code %d, epoch %d): stale or forged incarnation",
			ErrProtocol, d.Kind, want, EpochTag(e.sh.Epoch)))
	}

	switch e.cfg.Mode {
	case Inline:
		if int(d.Len) > e.sh.RXUsed.InlineCap() || int(d.Len) > e.cfg.FrameCap() || d.Len == 0 {
			return nil, e.fail(fmt.Errorf("%w: rx inline length %d", ErrProtocol, d.Len))
		}
		bp := e.pool.Get().(*[]byte)
		buf := *bp
		e.sh.RXUsed.ReadInline(e.rxTail, buf[:d.Len])
		e.meter.Copy(int(d.Len))
		e.rxTail++
		return e.newFrameLocked(buf[:d.Len], bp, -1), nil

	default:
		// FrameCap <= PageSize is enforced at construction (Validate), so
		// the first comparison already bounds the access within one slab;
		// the PageSize comparison keeps the slab bound explicit even if
		// the config invariant ever changes.
		if int(d.Len) > e.cfg.FrameCap() || int(d.Len) > platform.PageSize || d.Len == 0 {
			return nil, e.fail(fmt.Errorf("%w: rx length %d", ErrProtocol, d.Len))
		}
		slab := int(d.Ref & uint64(e.cfg.Slots-1))
		e.meter.Check(1)
		if !e.slabHeld[slab] {
			// The host returned a slab it does not hold: replayed or
			// duplicated completion. Fatal.
			return nil, e.fail(fmt.Errorf("%w: rx returned unposted slab %d", ErrProtocol, slab))
		}
		e.slabHeld[slab] = false
		off := uint64(slab) * platform.PageSize

		if e.cfg.RX == Revoke {
			// Un-share first, then read: after Revoke the host cannot
			// rewrite the bytes, so in-place use is single-fetch-safe.
			e.sh.RXData.Revoke(off, platform.PageSize)
			data := e.sh.RXData.Region().Slice(off, int(d.Len))
			e.rxTail++
			//ciovet:allow sharedescape slab revoked above: the host can no longer write these pages, so handing out the in-place view is single-fetch-safe until Release reshares
			return e.newFrameLocked(data, nil, slab), nil
		}

		bp := e.pool.Get().(*[]byte)
		buf := *bp
		e.sh.RXData.Region().ReadAt(buf[:d.Len], off)
		e.meter.Copy(int(d.Len))
		e.stageSlabLocked(slab)
		e.rxTail++
		return e.newFrameLocked(buf[:d.Len], bp, -1), nil
	}
}

// Recv returns the next received frame, or ErrRingEmpty: RecvBatch of
// one.
func (e *Endpoint) Recv() (*RxFrame, error) {
	var one [1]*RxFrame
	_, err := e.RecvBatch(one[:])
	return one[0], err
}

// RecvBatch dequeues up to len(out) received frames into out, validating
// the host's producer index once and publishing the consumer index (and
// any reposted receive slabs) once for the whole batch. It returns how
// many frames were delivered; (0, ErrRingEmpty) when none waited. Each
// descriptor is snapshotted once and fully validated before any payload
// access; the payload crosses into guest-private custody by exactly one
// early copy or by page revocation, per the configured policy.
// Fail-dead semantics are unchanged: a protocol violation mid-batch kills
// the endpoint and returns the frames already accepted alongside the
// fatal error; every later call returns ErrDead.
func (e *Endpoint) RecvBatch(out []*RxFrame) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.DeadOp(); err != nil {
		return 0, err
	}
	avail, err := e.rxAvailLocked()
	if err != nil {
		return 0, err
	}
	if avail == 0 {
		return 0, ErrRingEmpty
	}
	n := 0
	for n < len(out) && uint64(n) < avail {
		fr, ferr := e.recvSlotLocked()
		if ferr != nil {
			if n > 0 {
				e.publishRXLocked()
			}
			return n, ferr
		}
		out[n] = fr
		n++
	}
	e.publishRXLocked()
	return n, nil
}

// RXBell returns the doorbell the host rings when frames arrive, or nil
// in polling mode. Guest receive loops may select on its channel.
func (e *Endpoint) RXBell() *Doorbell {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sh.RXBell
}

// ArmRXNotify publishes the guest's receive wake threshold (event
// index): under EventIdx the host rings RXBell only once its producer
// index crosses the guest's consumer position. It then re-checks the
// raw producer index and reports whether frames already wait — the
// store-then-recheck that closes the lost-wakeup window (the mirror of
// the engine's store-prod-then-load-evt, see Engine.Publish). A true
// return means: do not block, poll again. The raw index is only a
// boolean hint here — consuming it still goes through the validated
// Recv path.
func (e *Endpoint) ArmRXNotify() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.RXUsed.Indexes().StoreEvent(e.rxTail)
	return e.sh.RXUsed.Indexes().LoadProd() != e.rxTail
}

// SuppressRXNotify withdraws the receive wake threshold (event index =
// consumer position - 1, a value the host's next publication can never
// cross) while the guest actively polls — the sustained-load half of
// the event-idx protocol: no boundary crossings while the consumer is
// keeping up anyway.
func (e *Endpoint) SuppressRXNotify() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.RXUsed.Indexes().StoreEvent(e.rxTail - 1)
}

// ParkRX parks an idle receive poller on the RXUsed producer index:
// wake is poked after every host store to it (Indexes.Park), on every
// device whatever its notification mode, at no model cost — a polling
// core noticing a store is not a doorbell. It reports whether frames
// already wait or the device died (the lost-wakeup re-check: poll again,
// don't block). A poke is a hint and may be late, spurious or — on a ring
// Swap or Reincarnate retired — never come, so callers bound the wait.
func (e *Endpoint) ParkRX(wake chan struct{}) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	ix := e.sh.RXUsed.Indexes()
	ix.Park(wake)
	return e.life.Dead() != nil || ix.LoadProd() != e.rxTail
}

// UnparkRX withdraws the parked wake while the poller is busy anyway.
func (e *Endpoint) UnparkRX() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sh.RXUsed.Indexes().Unpark()
}
