package blkring

import (
	"bytes"
	"errors"
	"testing"
	"unsafe"

	"confio/internal/blockdev"
	"confio/internal/cryptdisk"
	"confio/internal/platform"
)

func sector(seed byte) []byte {
	s := make([]byte, blockdev.SectorSize)
	for i := range s {
		s[i] = seed + byte(i)
	}
	return s
}

func setup(t *testing.T) (*Endpoint, *Backend, *blockdev.MemDisk) {
	t.Helper()
	disk := blockdev.NewMemDisk(32)
	ep, err := New(8, disk.Sectors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	be.Start()
	t.Cleanup(be.Stop)
	return ep, be, disk
}

// TestBackendFillsWholeCacheLines pins Backend to whole cache lines at
// line-aligned addresses: every Step stores to its lock, tail and poll
// count, and unpadded (152 bytes) the allocator places other objects'
// words beside them — file-rw op_lo_us read 3–5 % slower over alternated
// pairs, and even with the parent once padded.
func TestBackendFillsWholeCacheLines(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(Backend{}); sz%line != 0 {
		t.Fatalf("Backend is %d bytes: not a multiple of the %d-byte cache line", sz, line)
	}
	for i := 0; i < 64; i++ {
		backendSink = NewBackend(nil, nil) // on the heap, as every real backend is
		if off := uintptr(unsafe.Pointer(backendSink)) % line; off != 0 {
			t.Fatalf("backend %d allocated %d bytes into a cache line", i, off)
		}
	}
}

var backendSink *Backend

func TestReadWriteRoundTrip(t *testing.T) {
	ep, _, _ := setup(t)
	want := sector(3)
	if err := ep.WriteSector(5, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	if err := ep.ReadSector(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip corrupted")
	}
}

func TestManyRequestsWrapRing(t *testing.T) {
	ep, _, _ := setup(t)
	buf := make([]byte, blockdev.SectorSize)
	for i := 0; i < 50; i++ { // ring has 8 slots
		if err := ep.WriteSector(uint64(i%32), sector(byte(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if err := ep.ReadSector(uint64(i%32), buf); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(buf, sector(byte(i))) {
			t.Fatalf("iteration %d corrupted", i)
		}
	}
}

func TestOutOfRangeRejectedGuestSide(t *testing.T) {
	ep, _, _ := setup(t)
	if err := ep.ReadSector(99, make([]byte, blockdev.SectorSize)); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatalf("oob: %v", err)
	}
	if err := ep.ReadSector(0, make([]byte, 7)); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatalf("bad size: %v", err)
	}
}

func TestHostIOErrorSurfaces(t *testing.T) {
	// Guest believes the disk is larger than it is: the honest host
	// reports an I/O error (not a protocol violation).
	disk := blockdev.NewMemDisk(4)
	ep, err := New(8, 32, nil) // lies: 32 sectors
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	be.Start()
	defer be.Stop()
	if err := ep.ReadSector(20, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrIO) {
		t.Fatalf("want ErrIO, got %v", err)
	}
	// The endpoint stays usable.
	if err := ep.WriteSector(1, sector(1)); err != nil {
		t.Fatal(err)
	}
}

func TestForgedConsumerIndexFatal(t *testing.T) {
	disk := blockdev.NewMemDisk(8)
	ep, err := New(8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = disk
	// Malicious host: consumer ahead of producer.
	ep.Shared().Ring.Indexes().StoreCons(5)
	if err := ep.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("want ErrProtocol, got %v", err)
	}
	if err := ep.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrDead) {
		t.Fatalf("endpoint not dead: %v", err)
	}
}

func TestForgedStatusFatal(t *testing.T) {
	disk := blockdev.NewMemDisk(8)
	ep, err := New(8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = disk
	// Malicious host: completes the slot with a garbage status.
	sh := ep.Shared()
	done := make(chan error, 1)
	go func() {
		done <- ep.ReadSector(0, make([]byte, blockdev.SectorSize))
	}()
	// Wait for the request to appear, then complete it with junk.
	for sh.Ring.Indexes().LoadProd() == 0 {
	}
	off := sh.Ring.SlotOff(0)
	sh.Ring.Slots().SetU32(off+4, 0xDEAD)
	sh.Ring.Indexes().StoreCons(1)
	if err := <-done; !errors.Is(err, ErrProtocol) {
		t.Fatalf("garbage status accepted: %v", err)
	}
}

func TestBackendValidatesRequests(t *testing.T) {
	// A corrupted guest-side request (oversized length) gets an I/O
	// error, not host memory corruption.
	disk := blockdev.NewMemDisk(8)
	ep, err := New(8, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := ep.Shared()
	off := sh.Ring.SlotOff(0)
	sh.Ring.Slots().SetU32(off+0, OpWrite)
	sh.Ring.Slots().SetU64(off+8, 2)
	sh.Ring.Slots().SetU32(off+24, 0xFFFF) // bad length
	sh.Ring.Indexes().StoreProd(1)
	be := NewBackend(sh, disk)
	worked, err := be.Step()
	if !worked || err != nil {
		t.Fatalf("step: %v %v", worked, err)
	}
	if got := sh.Ring.Slots().U32(off + 4); got != StatusIOError {
		t.Fatalf("status = %d", got)
	}
}

func TestBackendDetectsOverclaim(t *testing.T) {
	disk := blockdev.NewMemDisk(8)
	ep, _ := New(8, 8, nil)
	ep.Shared().Ring.Indexes().StoreProd(100)
	be := NewBackend(ep.Shared(), disk)
	if _, err := be.Step(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("overclaim: %v", err)
	}
}

func TestCryptDiskOverBlkring(t *testing.T) {
	// The full storage stack: cryptdisk (in TEE) -> blkring -> host disk.
	// Host tampering below the ring is caught by the integrity layer —
	// defence in depth across both boundaries.
	var m platform.Meter
	disk := blockdev.NewMemDisk(16)
	ep, err := New(8, disk.Sectors(), &m)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	be.Start()
	defer be.Stop()

	cd, _, err := cryptdisk.Format(ep, 16, []byte("stacked-key"), &m)
	if err != nil {
		t.Fatal(err)
	}
	want := sector(0xAB)
	if err := cd.WriteSector(3, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("stacked round trip corrupted")
	}

	// Host corrupts the platter under the ring.
	raw := make([]byte, blockdev.SectorSize)
	disk.ReadSector(3, raw)
	raw[0] ^= 1
	disk.WriteSector(3, raw)
	if err := cd.ReadSector(3, got); !errors.Is(err, cryptdisk.ErrIntegrity) {
		t.Fatalf("under-ring tamper not caught: %v", err)
	}
	if m.Snapshot().BytesCopied == 0 || m.Snapshot().CryptoBytes == 0 {
		t.Fatal("stack not metered")
	}
}
