package shmem

import (
	"encoding/binary"
	"fmt"
)

// Region is a fixed, power-of-two sized shared byte area. Every accessor
// masks the supplied offset with Size()-1, so no offset value can reach
// memory outside the region: out-of-range access is unrepresentable by
// construction rather than rejected by a check. Multi-byte accessors wrap
// around the end of the region, which matches ring-buffer usage.
//
// A Region itself is not synchronized; the transports built on top of it
// define which side owns which bytes at which time. That is deliberate:
// the point of the simulation is that a malicious peer may ignore the
// ownership discipline, and the safe designs must stay memory-safe and
// integrity-preserving anyway.
type Region struct {
	buf  []byte
	mask uint64
}

// MinRegionSize is the smallest supported region (one 64-bit word).
const MinRegionSize = 8

// NewRegion allocates a shared region of the given size, which must be a
// power of two and at least MinRegionSize.
func NewRegion(size int) (*Region, error) {
	if size < MinRegionSize || size&(size-1) != 0 {
		return nil, fmt.Errorf("shmem: region size %d is not a power of two >= %d", size, MinRegionSize)
	}
	return &Region{buf: make([]byte, size), mask: uint64(size - 1)}, nil
}

// Size returns the region size in bytes (a power of two).
func (r *Region) Size() int { return len(r.buf) }

// Mask returns Size()-1, the offset mask applied by every accessor.
func (r *Region) Mask() uint64 { return r.mask }

// ReadAt copies len(dst) bytes starting at the masked offset into dst,
// wrapping around the region end. It always fills dst completely.
func (r *Region) ReadAt(dst []byte, off uint64) {
	for len(dst) > 0 {
		o := int(off & r.mask)
		n := copy(dst, r.buf[o:])
		dst = dst[n:]
		off += uint64(n)
	}
}

// WriteAt copies src into the region starting at the masked offset,
// wrapping around the region end.
func (r *Region) WriteAt(src []byte, off uint64) {
	for len(src) > 0 {
		o := int(off & r.mask)
		n := copy(r.buf[o:], src)
		src = src[n:]
		off += uint64(n)
	}
}

// U16 loads a little-endian uint16 at the masked offset.
func (r *Region) U16(off uint64) uint16 {
	o := off & r.mask
	if o+2 <= uint64(len(r.buf)) {
		return binary.LittleEndian.Uint16(r.buf[o:])
	}
	var tmp [2]byte
	r.ReadAt(tmp[:], off)
	return binary.LittleEndian.Uint16(tmp[:])
}

// SetU16 stores a little-endian uint16 at the masked offset.
func (r *Region) SetU16(off uint64, v uint16) {
	o := off & r.mask
	if o+2 <= uint64(len(r.buf)) {
		binary.LittleEndian.PutUint16(r.buf[o:], v)
		return
	}
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	r.WriteAt(tmp[:], off)
}

// U32 loads a little-endian uint32 at the masked offset.
func (r *Region) U32(off uint64) uint32 {
	o := off & r.mask
	if o+4 <= uint64(len(r.buf)) {
		return binary.LittleEndian.Uint32(r.buf[o:])
	}
	var tmp [4]byte
	r.ReadAt(tmp[:], off)
	return binary.LittleEndian.Uint32(tmp[:])
}

// SetU32 stores a little-endian uint32 at the masked offset.
func (r *Region) SetU32(off uint64, v uint32) {
	o := off & r.mask
	if o+4 <= uint64(len(r.buf)) {
		binary.LittleEndian.PutUint32(r.buf[o:], v)
		return
	}
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	r.WriteAt(tmp[:], off)
}

// U64 loads a little-endian uint64 at the masked offset.
func (r *Region) U64(off uint64) uint64 {
	o := off & r.mask
	if o+8 <= uint64(len(r.buf)) {
		return binary.LittleEndian.Uint64(r.buf[o:])
	}
	var tmp [8]byte
	r.ReadAt(tmp[:], off)
	return binary.LittleEndian.Uint64(tmp[:])
}

// SetU64 stores a little-endian uint64 at the masked offset.
func (r *Region) SetU64(off uint64, v uint64) {
	o := off & r.mask
	if o+8 <= uint64(len(r.buf)) {
		binary.LittleEndian.PutUint64(r.buf[o:], v)
		return
	}
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	r.WriteAt(tmp[:], off)
}

// Fill sets every byte of the region to v. Used to model "adding
// initialization to memory" hardening commits (Figures 3 and 4) and to
// scrub regions on revocation.
func (r *Region) Fill(v byte) {
	for i := range r.buf {
		r.buf[i] = v
	}
}

// Slice returns a view of n bytes of the region's storage starting at the
// masked offset. It panics if the range would wrap around the region end;
// callers use it only for layouts they sized to be contiguous (e.g.
// page-aligned receive slabs). Only guest-side code may hold a Slice: the
// guest always has access to its own memory, whereas host access must go
// through a fault-checked view.
func (r *Region) Slice(off uint64, n int) []byte {
	o := off & r.mask
	if o+uint64(n) > uint64(len(r.buf)) {
		panic(fmt.Sprintf("shmem: Slice(%d, %d) wraps region of %d bytes", off, n, len(r.buf)))
	}
	return r.buf[o : o+uint64(n)]
}

// Clone returns an independent copy of the region's current contents.
// The attack harness uses it to snapshot host-visible state.
func (r *Region) Clone() *Region {
	c := &Region{buf: make([]byte, len(r.buf)), mask: r.mask}
	copy(c.buf, r.buf)
	return c
}
