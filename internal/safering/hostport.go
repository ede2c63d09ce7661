package safering

import (
	"errors"
	"fmt"
	"sync"

	"confio/internal/platform"
	"confio/internal/shmem"
)

// HostPort is the honest host-side device model: it consumes guest
// transmit descriptors and produces receive descriptors, exactly as a
// well-behaved paravirtual backend would.
//
// The trust relationship is mutual distrust, so the host validates
// everything it reads from shared memory just as the guest does: indexes
// for monotonicity and bounds, descriptor lengths against the fixed
// geometry. A violation poisons the port (the real-world analogue is the
// host killing the VM).
type HostPort struct {
	sh *Shared
	// life is the poison state of the device model this port is a queue
	// of: a guest violation on any sibling queue poisons this one too.
	// The host side shares the death and nothing else: it never joins the
	// Life as a queue, because it is never reborn — a fresh port attaches
	// to the reborn guest's window instead.
	life *Life

	mu sync.Mutex

	txTail     uint64 // consumer position on TX
	rxFreeTail uint64 // consumer position on RXFree
	// rx is the producer engine for RXUsed — the same code that drives
	// the guest's TX ring, unmetered: head/consumer accounting,
	// backpressure, one index store and at most one (event-idx gated)
	// doorbell per burst.
	rx *Engine[Desc] //ciovet:guards mu

	// park is the wake a polling-mode backend blocks on once idle (see
	// ArmTXNotify); the guest's TX index store pokes it.
	park chan struct{}
}

// NewHostPort attaches an honest device model to the shared state.
func NewHostPort(sh *Shared) *HostPort { return newHostPort(sh, NewLife(ErrDead)) }

// newHostPort attaches one queue of the device model life belongs to.
func newHostPort(sh *Shared, life *Life) *HostPort {
	h := &HostPort{sh: sh, life: life, park: make(chan struct{}, 1)}
	h.rx = NewEngine[Desc](sh.RXUsed, sh.RXBell, descCodec{}, nil, EngineHooks[Desc]{Fail: h.fail})
	h.rx.SetEventIdx(sh.Cfg.EventIdx)
	return h
}

// Shared returns the device state this port drives.
func (h *HostPort) Shared() *Shared { return h.sh }

// Dead returns the violation that poisoned the port, if any. On a
// multi-queue device model a violation on any sibling queue counts.
func (h *HostPort) Dead() error { return h.life.Dead() }

func (h *HostPort) fail(err error) error { return h.life.Kill(err, nil) }

// Pop dequeues the next guest transmit frame into buf and returns its
// length, or ErrRingEmpty: PopBatch of one. buf must be at least FrameCap
// bytes.
func (h *HostPort) Pop(buf []byte) (int, error) {
	bufs, lens := [1][]byte{buf}, [1]int{}
	_, err := h.PopBatch(bufs[:], lens[:])
	return lens[0], err
}

// PopBatch dequeues up to len(bufs) guest transmit frames, one per
// buffer, loading and validating the guest's producer index once and
// publishing the consumer index once for the whole burst. lens[i]
// receives the length of the frame in bufs[i]; each buffer must hold
// FrameCap bytes and len(lens) must cover len(bufs). A violation
// mid-burst poisons the port and reports the frames already consumed.
func (h *HostPort) PopBatch(bufs [][]byte, lens []int) (int, error) {
	if len(bufs) == 0 {
		return 0, nil
	}
	if len(lens) < len(bufs) {
		return 0, fmt.Errorf("safering: PopBatch lens (%d) shorter than bufs (%d)", len(lens), len(bufs))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.life.DeadOp(); err != nil {
		return 0, err
	}
	prod := h.sh.TX.Indexes().LoadProd()
	avail, err := h.sh.TX.checkPeerProd(prod, h.txTail)
	if err != nil {
		return 0, h.fail(err)
	}
	if avail == 0 {
		return 0, ErrRingEmpty
	}
	n := 0
	for n < len(bufs) && uint64(n) < avail {
		d := h.sh.TX.ReadDesc(h.txTail) // single snapshot per slot
		ln, gerr := h.gather(d, bufs[n])
		if gerr != nil {
			if n > 0 {
				h.sh.TX.Indexes().StoreCons(h.txTail)
			}
			return n, h.fail(gerr)
		}
		lens[n] = ln
		h.txTail++
		n++
	}
	h.sh.TX.Indexes().StoreCons(h.txTail)
	return n, nil
}

// gather copies the frame named by a (snapshotted) TX descriptor into buf.
// The kind word must carry the deployment's code at the current epoch: the
// mutual-distrust mirror of the guest's RX check, so a guest replaying
// pre-reincarnation descriptors is caught the same way a host would be.
func (h *HostPort) gather(d Desc, buf []byte) (int, error) {
	mode := h.sh.Cfg.Mode
	if d.Len == 0 || int(d.Len) > h.sh.Cfg.FrameCap() || int(d.Len) > len(buf) {
		return 0, fmt.Errorf("%w: tx descriptor length %d", ErrProtocol, d.Len)
	}
	if KindCode(d.Kind) != uint32(mode) || KindEpoch(d.Kind) != EpochTag(h.sh.Epoch) {
		return 0, fmt.Errorf("%w: tx descriptor kind %#x (want code %d, epoch %d): stale or forged incarnation",
			ErrProtocol, d.Kind, mode, EpochTag(h.sh.Epoch))
	}
	if mode == Inline { // FrameCap is the slot's inline capacity
		h.sh.TX.ReadInline(h.txTail, buf[:d.Len])
		return int(d.Len), nil
	}
	ref := d.Ref
	if mode == Indirect {
		// One table hop, each word read once: the entry must hold exactly
		// one segment carrying the whole frame.
		entry := (d.Ref & (h.sh.TX.NSlots() - 1)) * indEntrySize
		nseg, segLen := h.sh.TXInd.U64(entry), h.sh.TXInd.U64(entry+24)
		if nseg != 1 || segLen != uint64(d.Len) {
			return 0, fmt.Errorf("%w: indirect entry of %d segments, length %d, for a %d-byte descriptor",
				ErrProtocol, nseg, segLen, d.Len)
		}
		ref = h.sh.TXInd.U64(entry + 16)
	}
	if int(d.Len) > h.sh.TXData.SlabSize() {
		return 0, fmt.Errorf("%w: tx length %d exceeds the %d-byte slab", ErrProtocol, d.Len, h.sh.TXData.SlabSize())
	}
	h.sh.TXData.Region().ReadAt(buf[:d.Len], h.sh.TXData.PeerOffset(shmem.Handle(ref)))
	return int(d.Len), nil
}

// Push delivers one frame toward the guest, or returns ErrRingFull when
// the guest has no receive capacity: PushBatch of one.
func (h *HostPort) Push(frame []byte) error {
	one := [1][]byte{frame}
	_, err := h.PushBatch(one[:])
	return err
}

// PushBatch delivers up to len(frames) frames toward the guest,
// validating the guest's consumer index once and publishing the producer
// index + doorbell once for the burst. It returns how many frames were
// accepted; (0, ErrRingFull) when the guest has no capacity at all, and a
// short count when capacity ran out mid-burst (the device drops the rest;
// DoS is out of the threat model).
func (h *HostPort) PushBatch(frames [][]byte) (int, error) {
	for _, f := range frames {
		if len(f) == 0 || len(f) > h.sh.Cfg.FrameCap() {
			return 0, fmt.Errorf("%w: push of %d bytes", ErrFrameSize, len(f))
		}
	}
	if len(frames) == 0 {
		return 0, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.life.DeadOp(); err != nil {
		return 0, err
	}
	cons, err := h.rx.Reap()
	if err != nil {
		return 0, err
	}
	n := 0
	for _, f := range frames {
		if h.rx.Full(cons) {
			break
		}
		if err := h.stagePushLocked(f); err != nil {
			if errors.Is(err, ErrRingFull) { // no free slab posted: partial burst
				break
			}
			h.rx.Publish() // the frames already accepted; a no-op when none
			return n, err
		}
		n++
	}
	if n == 0 {
		return 0, ErrRingFull
	}
	h.rx.Publish()
	return n, nil
}

// stagePushLocked stages one frame at the RXUsed engine's head without
// publishing; the engine's Publish makes the staged burst visible with
// one index store and at most one doorbell ring.
//
//ciovet:locked
func (h *HostPort) stagePushLocked(frame []byte) error {
	d := Desc{Len: uint32(len(frame))}
	if h.sh.Cfg.Mode == Inline {
		h.sh.RXUsed.WriteInline(h.rx.Head(), frame)
		d.Kind = KindWord(KindInline, h.sh.Epoch)
	} else {
		slab, err := h.popFreeSlab()
		if err != nil {
			return err
		}
		off := uint64(slab) * platform.PageSize
		if err := h.sh.RXData.HostView().WriteAt(frame, off); err != nil {
			// The guest revoked a slab it posted as free: from the
			// honest host's perspective that is a guest protocol bug.
			return h.fail(fmt.Errorf("%w: rx slab %d: %v", ErrProtocol, slab, err))
		}
		d.Kind, d.Ref = KindWord(KindShared, h.sh.Epoch), uint64(slab)
	}
	h.rx.Stage(d)
	return nil
}

// ArmTXNotify publishes the host's transmit wake threshold (event
// index): under EventIdx the guest rings TXBell only once its producer
// index crosses the host's consumer position. A polling-mode device has
// no bell, so the backend parks on the TX producer index instead
// (Indexes.Park). Either way it re-checks the raw producer index after
// the store (the lost-wakeup recheck) and reports whether frames already
// wait — true means poll again, don't block.
func (h *HostPort) ArmTXNotify() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	ix := h.sh.TX.Indexes()
	ix.StoreEvent(h.txTail)
	if h.sh.TXBell == nil {
		ix.Park(h.park)
	}
	return ix.LoadProd() != h.txTail
}

// SuppressTXNotify withdraws the transmit wake threshold (and the park)
// while the host pump actively polls, eliding guest doorbell rings under
// sustained load (event index = consumer position - 1, never crossed).
func (h *HostPort) SuppressTXNotify() {
	h.mu.Lock()
	defer h.mu.Unlock()
	ix := h.sh.TX.Indexes()
	ix.StoreEvent(h.txTail - 1)
	if h.sh.TXBell == nil {
		ix.Unpark()
	}
}

// TXWake returns what an armed backend blocks on: the guest's doorbell
// trigger, or the park wake on a polling-mode device. Never nil.
func (h *HostPort) TXWake() <-chan struct{} {
	if b := h.sh.TXBell; b != nil {
		return b.Chan()
	}
	return h.park
}

// popFreeSlab consumes the next guest-posted receive slab.
func (h *HostPort) popFreeSlab() (int, error) {
	prod := h.sh.RXFree.Indexes().LoadProd()
	avail, err := h.sh.RXFree.checkPeerProd(prod, h.rxFreeTail)
	if err != nil {
		return 0, h.fail(err)
	}
	if avail == 0 {
		return 0, ErrRingFull
	}
	d := h.sh.RXFree.ReadDesc(h.rxFreeTail)
	if KindCode(d.Kind) != KindShared || KindEpoch(d.Kind) != EpochTag(h.sh.Epoch) {
		return 0, h.fail(fmt.Errorf("%w: free-slab descriptor kind %#x from wrong incarnation (device epoch %d)",
			ErrProtocol, d.Kind, EpochTag(h.sh.Epoch)))
	}
	slab := int(d.Ref & uint64(h.sh.Cfg.Slots-1))
	h.rxFreeTail++
	h.sh.RXFree.Indexes().StoreCons(h.rxFreeTail)
	return slab, nil
}
