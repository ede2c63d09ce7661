package shmem

import (
	"errors"
	"fmt"
	"sync"
)

// Arena is a host/TEE shared slab allocator designed for mutual distrust,
// in the spirit of message-passing allocators such as snmalloc (paper
// §3.2, "a host-TEE shared memory allocator designed for distrust").
//
// The trusted side allocates; the untrusted side only ever names buffers
// by Handle. A Handle encodes the slab index in its low bits, so decoding
// masks rather than trusts: any 64-bit value a peer supplies resolves to
// *some* slab, never to out-of-range memory. A generation tag detects
// stale handles (use-after-free through the interface): frees bump the
// slab's generation, so a replayed handle no longer verifies.
//
// Frees arrive as messages (FreeMsg) rather than as direct mutation of
// allocator metadata, which keeps all allocator state private to the
// trusted side — the untrusted side cannot corrupt free lists because it
// cannot reach them.
type Arena struct {
	region   *Region
	slabSize int
	slabs    int
	idxMask  uint64

	mu    sync.Mutex
	free  []int
	gen   []uint32 // current generation per slab
	inUse []bool
	scrub []byte // always-zero scratch for scrubbing freed slabs (under mu)
}

// Handle names an arena slab across the trust boundary. It packs
// generation<<32 | slabIndex; the slab index is recovered by masking.
type Handle uint64

// FreeMsg is the control message through which the peer returns a buffer.
// Carrying the handle (not a pointer) keeps freeing safe by construction.
type FreeMsg struct {
	H Handle
}

// ErrArenaFull is returned by Alloc when no slab is free.
var ErrArenaFull = errors.New("shmem: arena exhausted")

// ErrStaleHandle is returned when a handle's generation does not match,
// i.e. the peer replayed a freed or never-issued handle.
var ErrStaleHandle = errors.New("shmem: stale or forged arena handle")

// NewArena builds an arena of slabs slabs of slabSize bytes, both powers
// of two, over a fresh shared region.
func NewArena(slabSize, slabs int) (*Arena, error) {
	if slabSize <= 0 || slabSize&(slabSize-1) != 0 {
		return nil, fmt.Errorf("shmem: arena slab size %d not a power of two", slabSize)
	}
	if slabs <= 0 || slabs&(slabs-1) != 0 {
		return nil, fmt.Errorf("shmem: arena slab count %d not a power of two", slabs)
	}
	r, err := NewRegion(slabSize * slabs)
	if err != nil {
		return nil, err
	}
	a := &Arena{
		region:   r,
		slabSize: slabSize,
		slabs:    slabs,
		idxMask:  uint64(slabs - 1),
		gen:      make([]uint32, slabs),
		inUse:    make([]bool, slabs),
		scrub:    make([]byte, slabSize),
	}
	a.free = make([]int, slabs)
	for i := range a.free {
		a.free[i] = slabs - 1 - i
	}
	return a, nil
}

// Region exposes the backing shared region.
func (a *Arena) Region() *Region { return a.region }

// SlabSize returns the size of each slab.
func (a *Arena) SlabSize() int { return a.slabSize }

// FreeSlabs returns the number of currently free slabs.
func (a *Arena) FreeSlabs() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.free)
}

// Alloc reserves a slab and returns its handle. Only the trusted side
// calls Alloc (trusted-component-allocates policy).
func (a *Arena) Alloc() (Handle, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(a.free) == 0 {
		return 0, ErrArenaFull
	}
	idx := a.free[len(a.free)-1]
	a.free = a.free[:len(a.free)-1]
	a.inUse[idx] = true
	return Handle(uint64(a.gen[idx])<<32 | uint64(idx)), nil
}

// slabIndex recovers the (always in-range, by masking) slab index.
func (a *Arena) slabIndex(h Handle) int { return int(uint64(h) & a.idxMask) }

// PeerOffset returns the region offset the *untrusted* side derives from
// a handle: pure masking, no verification, because the peer has no access
// to allocator state. Whatever 64-bit value it holds, the result is an
// in-range slab offset — the peer can read the wrong slab, never escape
// the region.
func (a *Arena) PeerOffset(h Handle) uint64 {
	return uint64(a.slabIndex(h) * a.slabSize)
}

// Verify checks that h names a live slab with a matching generation. All
// data-path operations verify before touching slab bytes.
func (a *Arena) Verify(h Handle) (idx int, err error) {
	idx = a.slabIndex(h)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inUse[idx] || uint32(uint64(h)>>32) != a.gen[idx] {
		return 0, ErrStaleHandle
	}
	return idx, nil
}

// Offset returns the region offset of the handle's slab after verifying
// it. Untrusted reads that skip Verify still cannot escape the region —
// they just read some other slab — but the trusted side always verifies.
func (a *Arena) Offset(h Handle) (uint64, error) {
	idx, err := a.Verify(h)
	if err != nil {
		return 0, err
	}
	return uint64(idx * a.slabSize), nil
}

// Write copies data into the handle's slab (after verification).
func (a *Arena) Write(h Handle, data []byte) error {
	if len(data) > a.slabSize {
		return fmt.Errorf("shmem: arena write of %d bytes exceeds slab size %d", len(data), a.slabSize)
	}
	off, err := a.Offset(h)
	if err != nil {
		return err
	}
	a.region.WriteAt(data, off)
	return nil
}

// Read copies n bytes of the handle's slab into dst (after verification).
func (a *Arena) Read(h Handle, n int, dst []byte) error {
	if n > a.slabSize || n > len(dst) {
		return fmt.Errorf("shmem: arena read of %d bytes exceeds slab or dst", n)
	}
	off, err := a.Offset(h)
	if err != nil {
		return err
	}
	a.region.ReadAt(dst[:n], off)
	return nil
}

// HandleFree processes a FreeMsg from the peer: it verifies the handle,
// bumps the generation (invalidating any copies the peer kept), scrubs
// the slab, and returns it to the free list. A stale or replayed handle
// returns ErrStaleHandle and mutates nothing.
func (a *Arena) HandleFree(m FreeMsg) error {
	idx := a.slabIndex(m.H)
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inUse[idx] || uint32(uint64(m.H)>>32) != a.gen[idx] {
		return ErrStaleHandle
	}
	a.inUse[idx] = false
	a.gen[idx]++
	a.region.WriteAt(a.scrub, uint64(idx*a.slabSize))
	a.free = append(a.free, idx)
	return nil
}
