package safering

import (
	"confio/internal/platform"
	"confio/internal/shmem"
)

// Shared is the complete host-visible state of one safe NIC instance:
// the rings, the data areas, and the doorbells. An honest device model
// drives it through HostPort; the attack harness reaches into it directly
// — by design, because a malicious host is not limited to any API.
type Shared struct {
	Cfg DeviceConfig

	// Epoch is the device incarnation this window belongs to. The first
	// incarnation is 0 (its wire tag is the bare kind code); every
	// Reincarnate/Swap allocates a fresh window at the next epoch. Both
	// sides stamp the epoch into every descriptor Kind word they publish
	// and fatally reject mismatches, so descriptors recorded from an old
	// incarnation cannot be replayed into a new one.
	Epoch uint32

	// TX: guest produces frame descriptors, host consumes.
	TX *Ring
	// RXUsed: host produces filled frame descriptors, guest consumes.
	// In Inline mode payloads ride in this ring's slots.
	RXUsed *Ring
	// RXFree: guest posts empty receive slabs, host consumes. Nil in
	// Inline mode.
	RXFree *Ring

	// TXData holds transmit payload slabs (SharedArea/Indirect), named
	// by generation-tagged handles. Nil in Inline mode.
	TXData *shmem.Arena
	// TXInd is the indirect table (Indirect mode only): one entry per TX
	// slot, see indEntrySize.
	TXInd *shmem.Region
	// RXData holds receive slabs, one page each, revocable (SharedArea/
	// Indirect). Nil in Inline mode.
	RXData *platform.Window

	// TXBell is rung by the guest after publishing TX work; RXBell by
	// the host after publishing RX frames. Nil unless Cfg.Notify.
	TXBell *Doorbell
	RXBell *Doorbell
}

// indEntrySize is the size of one indirect table entry: the segment count
// (always 1) at +0, padded to 16, then the slab handle at +16 and the
// segment length at +24, all u64 — virtio's indirect-descriptor layout
// cut to the one segment a frame ever needs (see Indirect).
const indEntrySize = 32

// newShared allocates all shared state for a config at the given device
// epoch. The meter is the guest's: page sharing for the RX window is
// charged to the guest, which owns the memory.
func newShared(cfg DeviceConfig, meter *platform.Meter, epoch uint32) (*Shared, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sh := &Shared{Cfg: cfg, Epoch: epoch}

	var err error
	if sh.TX, err = NewRing(cfg.Slots, cfg.SlotSize); err != nil {
		return nil, err
	}
	if sh.RXUsed, err = NewRing(cfg.Slots, cfg.SlotSize); err != nil {
		return nil, err
	}

	if cfg.Mode != Inline {
		// Descriptor-only rings could be smaller, but keeping the ring
		// geometry uniform keeps offsets trivially auditable.
		if sh.RXFree, err = NewRing(cfg.Slots, DescSize); err != nil {
			return nil, err
		}
		slabSize := 1
		for slabSize < cfg.FrameCap() {
			slabSize <<= 1
		}
		// One slab per TX slot: the TX engine never holds more frames.
		if sh.TXData, err = shmem.NewArena(slabSize, cfg.Slots); err != nil {
			return nil, err
		}
		// FrameCap <= PageSize is part of Validate's contract now; the
		// one-page slab geometry below depends on it.
		if sh.RXData, err = platform.NewWindow(cfg.Slots*platform.PageSize, meter); err != nil {
			return nil, err
		}
	}
	if cfg.Mode == Indirect {
		if sh.TXInd, err = shmem.NewRegion(cfg.Slots * indEntrySize); err != nil {
			return nil, err
		}
	}
	if cfg.Notify {
		sh.TXBell = NewDoorbell(meter)
		sh.RXBell = NewDoorbell(meter)
	}
	return sh, nil
}
