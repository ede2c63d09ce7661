package cryptdisk

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"testing"

	"confio/internal/blockdev"
	"confio/internal/platform"
)

var key = []byte("volume-key-sealed-to-tee-32bytes")

func volume(t *testing.T, n int) (*CryptDisk, *Meta, *blockdev.MemDisk) {
	t.Helper()
	phys := blockdev.NewMemDisk(uint64(n))
	cd, meta, err := Format(phys, n, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cd, meta, phys
}

// deep is a volume whose frontier sits three levels above its leaves, so
// the whole tree of an 8-sector volume — the one the tree tests were
// written against — is host-held in it, as the subtree over sectors 0..7.
// (In an 8-sector volume the leaves are the frontier: no node is read
// from the host at all.)
const deep = 8 << frontierMax

// sub maps heap index j of an 8-sector tree onto that subtree of a deep
// volume: sub(1) is its frontier node, sub(8..15) are the leaves of
// sectors 0..7.
func sub(j int) int {
	return j + (deep/8-1)<<(bits.Len(uint(j))-1)
}

func sector(seed byte) []byte {
	s := make([]byte, blockdev.SectorSize)
	for i := range s {
		s[i] = seed + byte(i)
	}
	return s
}

func TestFormatValidation(t *testing.T) {
	phys := blockdev.NewMemDisk(8)
	if _, _, err := Format(phys, 16, key, nil); !errors.Is(err, ErrGeometry) {
		t.Fatal("oversized volume accepted")
	}
	if _, _, err := Format(phys, 6, key, nil); !errors.Is(err, ErrGeometry) {
		t.Fatal("non-power-of-two accepted")
	}
	// A sector number must fit its 32 bits of the nonce: two sectors that
	// share them would share nonces. Refused before anything is sized by n.
	if _, _, err := Format(hugeDisk{n: 1 << 33}, 1<<33, key, nil); !errors.Is(err, ErrGeometry) {
		t.Fatalf("volume with sector numbers wider than the nonce field accepted: %v", err)
	}
}

// hugeDisk claims n sectors and holds none.
type hugeDisk struct {
	blockdev.Disk
	n uint64
}

func (d hugeDisk) Sectors() uint64 { return d.n }

func TestReadUnwrittenIsVerifiedZeros(t *testing.T) {
	cd, _, _ := volume(t, 8)
	buf := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(3, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	cd, _, _ := volume(t, 8)
	want := sector(7)
	if err := cd.WriteSector(2, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip corrupted")
	}
	// Overwrite bumps the version and still round-trips.
	want2 := sector(9)
	if err := cd.WriteSector(2, want2); err != nil {
		t.Fatal(err)
	}
	if err := cd.ReadSector(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want2) {
		t.Fatal("overwrite corrupted")
	}
}

func TestCiphertextOnPlatter(t *testing.T) {
	n := 8
	phys := blockdev.NewMemDisk(uint64(n))
	snoop := &blockdev.SnoopDisk{Disk: phys}
	cd, _, err := Format(snoop, n, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	secret := sector(0)
	copy(secret, []byte("TOP-SECRET-RECORDS"))
	if err := cd.WriteSector(1, secret); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(snoop.Seen(), []byte("TOP-SECRET-RECORDS")) {
		t.Fatal("plaintext reached the platter")
	}
}

func TestCorruptionDetected(t *testing.T) {
	cd, _, phys := volume(t, 8)
	if err := cd.WriteSector(1, sector(3)); err != nil {
		t.Fatal(err)
	}
	// Host flips a ciphertext bit directly on the platter.
	raw := make([]byte, blockdev.SectorSize)
	if err := phys.ReadSector(1, raw); err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 1
	if err := phys.WriteSector(1, raw); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(1, buf); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestVersionTamperDetected(t *testing.T) {
	cd, meta, _ := volume(t, 8)
	if err := cd.WriteSector(1, sector(3)); err != nil {
		t.Fatal(err)
	}
	meta.TamperVersion(1, 99)
	buf := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(1, buf); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("version tamper not detected: %v", err)
	}
}

func TestTreeNodeTamperDetected(t *testing.T) {
	cd, meta, _ := volume(t, deep)
	if err := cd.WriteSector(1, sector(3)); err != nil {
		t.Fatal(err)
	}
	meta.TamperNode(sub(3), [32]byte{0xEE}) // an internal node off sector 1's path's sibling side
	buf := make([]byte, blockdev.SectorSize)
	// Reading any sector whose path includes node 3 must fail.
	var failed bool
	for lba := uint64(0); lba < 8; lba++ {
		if err := cd.ReadSector(lba, buf); errors.Is(err, ErrIntegrity) {
			failed = true
		}
	}
	if !failed {
		t.Fatal("tree tamper never detected")
	}
}

func TestRollbackDetected(t *testing.T) {
	// The full rollback: the host snapshots ciphertext + version + every
	// relevant tree node, lets the guest overwrite, then restores the
	// complete consistent stale state. Only the TEE-held frontier defeats
	// it: the leaf itself at 8 sectors, three host-held levels up at deep.
	for _, n := range []int{8, deep} {
		phys := blockdev.NewMemDisk(uint64(n))
		rb := &blockdev.RollbackDisk{Disk: phys}
		cd, meta, err := Format(rb, n, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cd.WriteSector(1, sector(0xAA)); err != nil { // v1: the "old balance"
			t.Fatal(err)
		}
		metaSnap := meta.Snapshot(1)
		if err := rb.Snapshot([]uint64{1}); err != nil {
			t.Fatal(err)
		}

		if err := cd.WriteSector(1, sector(0xBB)); err != nil { // v2: the "new balance"
			t.Fatal(err)
		}

		// Rollback: stale platter + stale metadata, fully consistent —
		// the host recomputes every internal node from the leaves, so
		// even the slots above the cut, which the guest never reads,
		// agree with the stale state.
		rb.Activate()
		meta.Restore(metaSnap)
		for i := n - 1; i >= 1; i-- {
			meta.TamperNode(i, nodeHash(meta.Node(2*i), meta.Node(2*i+1)))
		}

		buf := make([]byte, blockdev.SectorSize)
		if err := cd.ReadSector(1, buf); !errors.Is(err, ErrIntegrity) {
			t.Fatalf("%d sectors: rollback not detected: %v", n, err)
		}
	}
}

func TestPreWriteCheckBlocksLaundering(t *testing.T) {
	cd, meta, _ := volume(t, deep)
	if err := cd.WriteSector(1, sector(1)); err != nil {
		t.Fatal(err)
	}
	// Host corrupts a sibling node, hoping the next write will recompute
	// a frontier node over its tampered tree.
	meta.TamperNode(sub(2), [32]byte{0xCC})
	if err := cd.WriteSector(5, sector(5)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("pre-write check missing: %v", err)
	}
}

func TestRootChangesOnWrite(t *testing.T) {
	cd, _, _ := volume(t, 8)
	r0 := cd.Root()
	if err := cd.WriteSector(0, sector(1)); err != nil {
		t.Fatal(err)
	}
	if cd.Root() == r0 {
		t.Fatal("root did not advance")
	}
}

func TestBadArgs(t *testing.T) {
	cd, _, _ := volume(t, 8)
	if err := cd.ReadSector(0, make([]byte, 100)); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatal("short read buffer accepted")
	}
	if err := cd.WriteSector(0, make([]byte, 100)); !errors.Is(err, blockdev.ErrBadSize) {
		t.Fatal("short write accepted")
	}
	buf := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(99, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatal("oob read accepted")
	}
	if err := cd.WriteSector(99, buf); !errors.Is(err, blockdev.ErrOutOfRange) {
		t.Fatal("oob write accepted")
	}
}

func TestCryptoMetered(t *testing.T) {
	var m platform.Meter
	phys := blockdev.NewMemDisk(8)
	cd, _, err := Format(phys, 8, key, &m)
	if err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteSector(0, sector(1)); err != nil {
		t.Fatal(err)
	}
	if m.Snapshot().CryptoBytes < blockdev.SectorSize {
		t.Fatal("crypto not metered")
	}
}

// Property: random interleaved writes and reads over the whole volume
// always round-trip and never fail integrity under an honest host.
func TestRandomTrafficProperty(t *testing.T) {
	const n = 16
	cd, _, _ := volume(t, n)
	rng := rand.New(rand.NewSource(7))
	shadow := make(map[uint64][]byte)
	buf := make([]byte, blockdev.SectorSize)
	for i := 0; i < 500; i++ {
		lba := uint64(rng.Intn(n))
		if rng.Intn(2) == 0 {
			data := sector(byte(rng.Intn(256)))
			if err := cd.WriteSector(lba, data); err != nil {
				t.Fatal(err)
			}
			shadow[lba] = data
		} else {
			if err := cd.ReadSector(lba, buf); err != nil {
				t.Fatal(err)
			}
			want, ok := shadow[lba]
			if !ok {
				want = make([]byte, blockdev.SectorSize)
			}
			if !bytes.Equal(buf, want) {
				t.Fatalf("iteration %d: sector %d mismatch", i, lba)
			}
		}
	}
}
