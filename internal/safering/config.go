package safering

import (
	"errors"
	"fmt"

	"confio/internal/platform"
)

// DataMode selects where frame payloads live relative to the ring
// (the "explore data positioning" axis of §3.2).
type DataMode uint8

const (
	// Inline stores the payload in the ring slot, after the descriptor.
	// One shared-memory write per frame, no separate data area, but slot
	// size bounds the frame size and the ring is large.
	Inline DataMode = iota
	// SharedArea stores payloads in a separate shared data area; the
	// descriptor carries a masked, generation-tagged handle. Slabs are
	// recycled via consumption indexes (TX) and reposting (RX).
	SharedArea
	// Indirect is SharedArea plus one table hop: the descriptor names the
	// slot's indirect-table entry, and the entry names the frame's one
	// data-area slab. Models virtio's indirect descriptors, with masking.
	// One segment always suffices: Validate bounds FrameCap by the page
	// and the slab is at least FrameCap.
	Indirect
)

func (m DataMode) String() string {
	switch m {
	case Inline:
		return "inline"
	case SharedArea:
		return "shared-area"
	case Indirect:
		return "indirect"
	default:
		return fmt.Sprintf("DataMode(%d)", uint8(m))
	}
}

// RXPolicy selects how received payloads cross from host-writable memory
// into guest-private memory (the "explore revocation" axis of §3.2).
type RXPolicy uint8

const (
	// CopyOut copies each received frame out of the shared slab into a
	// private buffer, early, exactly once.
	CopyOut RXPolicy = iota
	// Revoke un-shares the page under the received frame from the host
	// and lets the guest use it in place; the page is re-shared when the
	// frame is released. Only valid with SharedArea mode and page-sized
	// slabs.
	Revoke
)

func (p RXPolicy) String() string {
	if p == Revoke {
		return "revoke"
	}
	return "copy"
}

// MAC is a fixed Ethernet address, configured at deployment.
type MAC [6]byte

func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// DeviceConfig is the zero-negotiation device contract: every parameter a
// paravirtual control plane would negotiate is fixed here, at
// construction, on both sides (§3.2 principle 4). The struct is copied
// into the endpoint and never mutated.
type DeviceConfig struct {
	MAC MAC
	// MTU is the maximum Ethernet payload; frames up to MTU+HeaderSlack
	// bytes traverse the rings.
	MTU int
	// Slots per ring; power of two.
	Slots int
	// SlotSize in bytes (power of two, >= 64). In Inline mode the
	// payload capacity is SlotSize-DescSize; other modes only need the
	// descriptor and ignore the remainder.
	SlotSize int
	// Mode selects data positioning.
	Mode DataMode
	// RX selects the receive-side crossing policy.
	RX RXPolicy
	// Notify enables doorbells; when false both sides poll.
	Notify bool
	// EventIdx enables virtio-style notification suppression on top of
	// Notify: each consumer publishes an event index ("ring me when your
	// producer index crosses X") and producers ring only when it is
	// crossed. Like everything else here it is fixed at deployment on
	// both sides — there is no feature negotiation to subvert. Requires
	// Notify.
	EventIdx bool
}

// HeaderSlack is the extra room beyond the MTU for link headers in a
// slab/slot (Ethernet header + margin, mirroring real ring designs).
const HeaderSlack = 64

// DefaultConfig returns a deployable configuration: 256 slots, 2 KiB
// inline slots, 1500-byte MTU, polling.
func DefaultConfig() DeviceConfig {
	return DeviceConfig{
		MAC:      MAC{0x02, 0x00, 0x00, 0xC1, 0x0A, 0x01},
		MTU:      1500,
		Slots:    256,
		SlotSize: 2048,
		Mode:     Inline,
		RX:       CopyOut,
	}
}

// ErrConfig reports an invalid DeviceConfig.
var ErrConfig = errors.New("safering: invalid device config")

// Validate checks the config's structural requirements. Because there is
// no negotiation, an invalid config is a deployment bug and endpoints
// refuse to construct.
func (c DeviceConfig) Validate() error {
	pow2 := func(v int) bool { return v > 0 && v&(v-1) == 0 }
	switch {
	case c.MTU < 64 || c.MTU > 65536:
		return fmt.Errorf("%w: MTU %d", ErrConfig, c.MTU)
	case !pow2(c.Slots) || c.Slots < 2:
		return fmt.Errorf("%w: slots %d not a power of two >= 2", ErrConfig, c.Slots)
	case !pow2(c.SlotSize) || c.SlotSize < 64:
		return fmt.Errorf("%w: slot size %d not a power of two >= 64", ErrConfig, c.SlotSize)
	case c.Mode > Indirect:
		return fmt.Errorf("%w: unknown data mode %d", ErrConfig, c.Mode)
	case c.RX > Revoke:
		return fmt.Errorf("%w: unknown rx policy %d", ErrConfig, c.RX)
	case c.Mode == Inline && c.MTU+HeaderSlack > c.SlotSize-DescSize:
		return fmt.Errorf("%w: inline mode needs SlotSize >= MTU+slack+desc (%d > %d)",
			ErrConfig, c.MTU+HeaderSlack+DescSize, c.SlotSize)
	case c.RX == Revoke && c.Mode != SharedArea:
		return fmt.Errorf("%w: revoke rx policy requires shared-area mode", ErrConfig)
	case c.EventIdx && !c.Notify:
		return fmt.Errorf("%w: event-idx suppression requires doorbells (Notify)", ErrConfig)
	case c.Mode != Inline && c.FrameCap() > platform.PageSize:
		// Receive slabs are exactly one page; a larger frame capacity
		// would let a descriptor's Len reach into the adjacent slab. It
		// also keeps every TX frame in one slab (newShared sizes TX slabs
		// at least FrameCap), so Indirect never needs a second segment.
		// Zero-negotiation: the contract is fixed — and checked — at
		// construction, never discovered at runtime.
		return fmt.Errorf("%w: frame capacity %d exceeds the one-page RX slab (%d)",
			ErrConfig, c.FrameCap(), platform.PageSize)
	}
	return nil
}

// FrameCap returns the largest frame the configuration can carry.
func (c DeviceConfig) FrameCap() int {
	switch c.Mode {
	case Inline:
		return c.SlotSize - DescSize
	default:
		return c.MTU + HeaderSlack
	}
}
