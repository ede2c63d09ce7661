package shmem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestArenaAllocWriteReadFree(t *testing.T) {
	a, err := NewArena(256, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello across the boundary")
	if err := a.Write(h, msg); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(msg))
	if err := a.Read(h, len(msg), got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("round trip = %q", got)
	}
	if err := a.HandleFree(FreeMsg{H: h}); err != nil {
		t.Fatal(err)
	}
	if a.FreeSlabs() != 8 {
		t.Fatalf("FreeSlabs = %d, want 8", a.FreeSlabs())
	}
}

func TestArenaStaleHandleRejected(t *testing.T) {
	a, _ := NewArena(128, 4)
	h, _ := a.Alloc()
	if err := a.HandleFree(FreeMsg{H: h}); err != nil {
		t.Fatal(err)
	}
	// Replayed free of the same handle must fail (generation bumped).
	if err := a.HandleFree(FreeMsg{H: h}); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("replayed free: want ErrStaleHandle, got %v", err)
	}
	// Use-after-free through the interface must fail too.
	if err := a.Write(h, []byte{1}); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("stale write: want ErrStaleHandle, got %v", err)
	}
	if err := a.Read(h, 1, make([]byte, 1)); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("stale read: want ErrStaleHandle, got %v", err)
	}
}

func TestArenaGenerationDistinguishesReuse(t *testing.T) {
	a, _ := NewArena(128, 2)
	// Drain then free so the next alloc reuses a slab index.
	h1, _ := a.Alloc()
	h2, _ := a.Alloc()
	if err := a.HandleFree(FreeMsg{H: h2}); err != nil {
		t.Fatal(err)
	}
	h3, err := a.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if a.slabIndex(h3) != a.slabIndex(h2) {
		t.Fatalf("expected slab reuse: %d vs %d", a.slabIndex(h3), a.slabIndex(h2))
	}
	if h3 == h2 {
		t.Fatal("reused slab produced identical handle; generation not bumped")
	}
	// Old handle must not verify against the reused slab.
	if _, err := a.Verify(h2); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("old handle verified after reuse: %v", err)
	}
	if _, err := a.Verify(h1); err != nil {
		t.Fatalf("live handle failed to verify: %v", err)
	}
}

func TestArenaForgedHandleCannotEscape(t *testing.T) {
	a, _ := NewArena(128, 4)
	h, _ := a.Alloc()
	if err := a.Write(h, []byte("x")); err != nil {
		t.Fatal(err)
	}
	// A forged handle with a huge index still masks into range and then
	// fails generation/in-use verification — it can never fault.
	forged := Handle(uint64(0xFFFF)<<32 | 0xFFFFFFFF)
	if _, err := a.Verify(forged); !errors.Is(err, ErrStaleHandle) {
		t.Fatalf("forged handle: want ErrStaleHandle, got %v", err)
	}
}

func TestArenaExhaustion(t *testing.T) {
	a, _ := NewArena(64, 2)
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(); !errors.Is(err, ErrArenaFull) {
		t.Fatalf("want ErrArenaFull, got %v", err)
	}
}

func TestArenaScrubsOnFree(t *testing.T) {
	a, _ := NewArena(64, 2)
	h, _ := a.Alloc()
	if err := a.Write(h, []byte("tenant secret")); err != nil {
		t.Fatal(err)
	}
	idx := a.slabIndex(h)
	if err := a.HandleFree(FreeMsg{H: h}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	a.Region().ReadAt(buf, uint64(idx*64))
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("freed slab byte %d not scrubbed: %#x", i, v)
		}
	}
}

// Property: any 64-bit value used as a handle resolves to an in-range
// slab index and either verifies as a live handle or returns
// ErrStaleHandle — never a panic or out-of-range access.
func TestArenaHandleTotalityProperty(t *testing.T) {
	a, _ := NewArena(64, 8)
	live, _ := a.Alloc()
	f := func(raw uint64) bool {
		h := Handle(raw)
		idx := a.slabIndex(h)
		if idx < 0 || idx >= 8 {
			return false
		}
		_, err := a.Verify(h)
		return err == nil || errors.Is(err, ErrStaleHandle)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Verify(live); err != nil {
		t.Fatalf("live handle must keep verifying: %v", err)
	}
}

// Property: the untrusted side's unverified decode maps any 64-bit handle
// to the start of some slab inside the region, and a live handle to its
// own slab — a forged handle can name the wrong slab, never escape.
func TestArenaPeerOffsetProperty(t *testing.T) {
	const slabSize, slabs = 64, 8
	a, _ := NewArena(slabSize, slabs)
	f := func(raw uint64) bool {
		off := a.PeerOffset(Handle(raw))
		return off%slabSize == 0 && off+slabSize <= uint64(a.Region().Size())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	h, _ := a.Alloc()
	want, err := a.Offset(h)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.PeerOffset(h); got != want {
		t.Fatalf("PeerOffset(live) = %d, verified Offset = %d", got, want)
	}
}
