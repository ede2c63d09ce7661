// Package taintreg replays the masks the safe ring puts on slot numbers
// its peer chose, shape for shape, to pin down that hosttaint guards them
// mechanically. Each shipped shape must stay clean. Each shape with the
// mask deleted carries a want where the peer's number indexes or bounds
// Go memory; where it only ever becomes a Region offset, which the Region
// masks itself, it stays clean, so the rule does not cry wolf on the
// ring's own offset discipline.
package taintreg

import (
	"safering"
	"shmem"
)

const (
	slots        = 64
	pageSize     = 4096
	indEntrySize = 32
)

// endpoint mirrors the guest half of safering.Endpoint: slabHeld records
// the slabs the guest has lent to the host for receive.
type endpoint struct {
	used     *safering.Ring
	rxTail   uint64
	frameCap int
	slabHeld [slots]bool
}

// recvSlot is Endpoint.recvSlotLocked as shipped: the length is checked
// on a fail-dead path and the slab number masked to the slot count before
// it indexes slabHeld.
func (e *endpoint) recvSlot() (int, error) {
	d := e.used.ReadDesc(e.rxTail)
	if int(d.Len) > e.frameCap || d.Len == 0 {
		return 0, safering.ErrProtocol
	}
	slab := int(d.Ref & uint64(slots-1))
	if !e.slabHeld[slab] {
		return 0, safering.ErrProtocol
	}
	e.slabHeld[slab] = false
	return slab, nil
}

// recvSlotUnmasked deletes the mask. The length check validates d.Len,
// not d.Ref, so the host's slab number indexes slabHeld unchecked.
func (e *endpoint) recvSlotUnmasked() (int, error) {
	d := e.used.ReadDesc(e.rxTail)
	if int(d.Len) > e.frameCap || d.Len == 0 {
		return 0, safering.ErrProtocol
	}
	slab := int(d.Ref)
	if !e.slabHeld[slab] { // want "host-controlled value indexes e.slabHeld"
		return 0, safering.ErrProtocol
	}
	e.slabHeld[slab] = false // want "host-controlled value indexes e.slabHeld"
	return slab, nil
}

// hostPort mirrors the host half of safering.HostPort: it gathers guest
// TX frames through the indirect table and pops the slabs the guest
// posted for receive.
type hostPort struct {
	tx, rxFree  *safering.Ring
	txInd, data *shmem.Region
	rxTail      uint64
	slabSize    int
	frameCap    int
}

// gather is HostPort.gather's indirect hop as shipped: the descriptor's
// Ref is masked to the slot count to pick its own table entry, and the
// entry must carry exactly the validated length.
func (h *hostPort) gather(d safering.Desc, buf []byte) (int, error) {
	if d.Len == 0 || int(d.Len) > h.frameCap || int(d.Len) > len(buf) {
		return 0, safering.ErrProtocol
	}
	entry := (d.Ref & (h.tx.NSlots() - 1)) * indEntrySize
	if h.txInd.U64(entry+24) != uint64(d.Len) {
		return 0, safering.ErrProtocol
	}
	ref := h.txInd.U64(entry + 16)
	h.data.ReadAt(buf[:d.Len], ref*uint64(h.slabSize))
	return int(d.Len), nil
}

// gatherUnmasked deletes the entry mask. The entry offset only addresses
// the table Region, which masks every offset itself: a guest can point
// the host at another slot's entry, never at memory outside the table.
// Clean by design.
func (h *hostPort) gatherUnmasked(d safering.Desc, buf []byte) (int, error) {
	if d.Len == 0 || int(d.Len) > h.frameCap || int(d.Len) > len(buf) {
		return 0, safering.ErrProtocol
	}
	entry := d.Ref * indEntrySize
	if h.txInd.U64(entry+24) != uint64(d.Len) {
		return 0, safering.ErrProtocol
	}
	ref := h.txInd.U64(entry + 16)
	h.data.ReadAt(buf[:d.Len], ref*uint64(h.slabSize))
	return int(d.Len), nil
}

// gatherUnbounded keeps the mask but drops the length bound: the length
// of the copy is the guest's to choose, and what the gather path's checks
// actually guard.
func (h *hostPort) gatherUnbounded(d safering.Desc, buf []byte) (int, error) {
	entry := (d.Ref & (h.tx.NSlots() - 1)) * indEntrySize
	ref := h.txInd.U64(entry + 16)
	h.data.ReadAt(buf[:d.Len], ref*uint64(h.slabSize)) // want "host-controlled value bounds a slice of buf"
	return int(d.Len), nil
}

// popFreeSlab is HostPort.popFreeSlab as shipped: the guest's slab number
// is masked to the slot count before it leaves the function.
func (h *hostPort) popFreeSlab() int {
	d := h.rxFree.ReadDesc(h.rxTail)
	h.rxTail++
	return int(d.Ref & uint64(slots-1))
}

// popFreeSlabUnmasked deletes the mask: the slab number leaves the
// function host-tainted.
func (h *hostPort) popFreeSlabUnmasked() int {
	d := h.rxFree.ReadDesc(h.rxTail)
	h.rxTail++
	return int(d.Ref)
}

// deliver is the host's receive path: the popped slab becomes a data
// Region offset, which the Region masks. Clean with either pop.
func (h *hostPort) deliver(frame []byte, masked bool) {
	slab := h.popFreeSlab()
	if !masked {
		slab = h.popFreeSlabUnmasked()
	}
	h.data.WriteAt(frame, uint64(slab)*pageSize)
}

// slabOwners is what either pop feeds once per-slab state lives in a Go
// array: the unmasked number crosses the call and meets the index.
func (h *hostPort) slabOwners(owners *[slots]int) (int, int) {
	return owners[h.popFreeSlab()],
		owners[h.popFreeSlabUnmasked()] // want "host-controlled value \\(via popFreeSlabUnmasked\\) indexes owners"
}
