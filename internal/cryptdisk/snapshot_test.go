package cryptdisk

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"confio/internal/blockdev"
)

// Tests for the allocation-free hashing and the single-snapshot Merkle
// update: the on-disk format is pinned against the implementation this
// one replaced, the update may use no tree state but what the pre-write
// check verified, and the per-sector allocation budget is a test.

// refLeafHash and refNodeHash are the leaf and node functions as they
// were before the hashing stopped allocating, kept as the reference the
// format is compared against.
func refLeafHash(macKey, ct []byte, lba, version uint64) [32]byte {
	m := hmac.New(sha256.New, macKey)
	m.Write(ct)
	var hdr [16]byte
	binary.BigEndian.PutUint64(hdr[0:], lba)
	binary.BigEndian.PutUint64(hdr[8:], version)
	m.Write(hdr[:])
	var out [32]byte
	copy(out[:], m.Sum(nil))
	return out
}

func refNodeHash(a, b [32]byte) [32]byte {
	return sha256.Sum256(append(a[:], b[:]...))
}

// refTree builds the whole node table of an n-sector volume from the
// platter and the versions with the reference functions.
func refTree(t *testing.T, phys blockdev.Disk, meta *Meta, n int) [][32]byte {
	t.Helper()
	macKey := sha256.Sum256(append([]byte("cryptdisk-mac:"), key...))
	nodes := make([][32]byte, 2*n)
	ct := make([]byte, blockdev.SectorSize)
	for i := 0; i < n; i++ {
		if err := phys.ReadSector(uint64(i), ct); err != nil {
			t.Fatal(err)
		}
		nodes[n+i] = refLeafHash(macKey[:], ct, uint64(i), meta.Version(uint64(i)))
	}
	for i := n - 1; i >= 1; i-- {
		nodes[i] = refNodeHash(nodes[2*i], nodes[2*i+1])
	}
	return nodes
}

// checkAgainstRef compares the volume's root and every stored node with
// a tree rebuilt from scratch by the reference functions.
func checkAgainstRef(t *testing.T, cd *CryptDisk, meta *Meta, phys blockdev.Disk, n int, when string) {
	t.Helper()
	ref := refTree(t, phys, meta, n)
	if cd.Root() != ref[1] {
		t.Fatalf("%s: root %x, reference tree says %x", when, cd.Root(), ref[1])
	}
	for i := 1; i < 2*n; i++ {
		meta.mu.Lock()
		got := meta.node(i)
		meta.mu.Unlock()
		if got != ref[i] {
			t.Fatalf("%s: node %d is %x, reference tree says %x", when, i, got, ref[i])
		}
	}
}

func unhex(t *testing.T, s string) (out [32]byte) {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		t.Fatalf("bad pin %q", s)
	}
	copy(out[:], b)
	return out
}

// TestHashKnownAnswers pins leafHash, nodeHash, the Format root of an
// 8-sector volume and the root after a single and a two-sector write to
// the values the previous implementation produced: the on-disk format
// does not move.
func TestHashKnownAnswers(t *testing.T) {
	cd, _, _ := volume(t, 8)
	if got, want := cd.leafHash(sector(0x42), 5, 3), unhex(t, "5528a29689e1e8f0f0bce31539e95d6e23d59484b427e7cd88248f07c363eab2"); got != want {
		t.Errorf("leafHash = %x, want %x", got, want)
	}
	var a, b [32]byte
	for i := range a {
		a[i], b[i] = byte(i), byte(0xF0-i)
	}
	if got, want := nodeHash(a, b), unhex(t, "0da0b9c7ece01d15225e3545c55b3e98ab8a6e94424ddbcdb71534b708d2c597"); got != want {
		t.Errorf("nodeHash = %x, want %x", got, want)
	}
	if got, want := cd.Root(), unhex(t, "8d8c829e46f7a7f6c3f5bb35b110ec4b07e815846732ed277ab7cd8e1e802319"); got != want {
		t.Errorf("Format root = %x, want %x", got, want)
	}
	if err := cd.WriteSector(2, sector(7)); err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteSectors(4, append(sector(1), sector(2)...)); err != nil {
		t.Fatal(err)
	}
	if got, want := cd.Root(), unhex(t, "ab49a977c7fc132cc26eaa14d0b4689d5903319c8b0e2fae9db593155fddb985"); got != want {
		t.Errorf("root after two writes = %x, want %x", got, want)
	}
}

// TestFormatMatchesReference: a freshly formatted volume, and the same
// volume after single-sector writes and after spans whose sectors are
// each other's siblings at every level, stores exactly the tree the
// reference functions build from the platter — so a volume written by
// the previous implementation verifies under this one, node for node,
// and the span update's overlay of recomputed siblings is right.
func TestFormatMatchesReference(t *testing.T) {
	const n = 16
	cd, meta, phys := volume(t, n)
	checkAgainstRef(t, cd, meta, phys, n, "after Format")
	shadow := make([]byte, n*blockdev.SectorSize)
	write := func(lba, count int, seed byte) {
		t.Helper()
		p := shadow[lba*blockdev.SectorSize : (lba+count)*blockdev.SectorSize]
		for i := range p {
			p[i] = seed + byte(i*3)
		}
		if err := cd.WriteSectors(uint64(lba), p); err != nil {
			t.Fatal(err)
		}
	}
	write(5, 1, 1)
	checkAgainstRef(t, cd, meta, phys, n, "after one sector")
	for _, span := range [][2]int{{0, 2}, {3, 2}, {1, 6}, {7, 9}, {0, 16}, {6, 5}} {
		write(span[0], span[1], byte(span[0]*16+span[1]))
		checkAgainstRef(t, cd, meta, phys, n, "after a span")
	}
	got := make([]byte, len(shadow))
	if err := cd.ReadSectors(0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shadow) {
		t.Fatal("volume contents differ from what was written")
	}
}

// rollbackDuringWrite is the double-fetch rollback: sector victim holds
// secret A, then B. While the guest writes the sectors at lba (not the
// victim), after their paths verified, the host puts the victim's leaf,
// version, ancestors and ciphertext back to the A state. An update that
// re-reads siblings from Meta folds the stale nodes into the new root,
// and the victim then reads A with a valid path.
func rollbackDuringWrite(t *testing.T, victim uint64, lba uint64, sectors int) {
	t.Helper()
	const n = 8
	phys := blockdev.NewMemDisk(n)
	hd := &blockdev.RacingDisk{Disk: phys}
	cd, meta, err := Format(hd, n, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, b := sector(0xAA), sector(0xBB)
	if err := cd.WriteSector(victim, a); err != nil {
		t.Fatal(err)
	}
	oldMeta := meta.Snapshot(victim)
	oldCT := make([]byte, blockdev.SectorSize)
	if err := phys.ReadSector(victim, oldCT); err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteSector(victim, b); err != nil {
		t.Fatal(err)
	}
	newVersion, newCT := meta.Version(victim), make([]byte, blockdev.SectorSize)
	if err := phys.ReadSector(victim, newCT); err != nil {
		t.Fatal(err)
	}

	hd.OnWrite = func() {
		meta.Restore(oldMeta)
		if err := phys.WriteSector(victim, oldCT); err != nil {
			t.Error(err)
		}
	}
	p := make([]byte, sectors*blockdev.SectorSize)
	for i := range p {
		p[i] = byte(i * 5)
	}
	if err := cd.WriteSectors(lba, p); err != nil {
		t.Fatalf("the guest's own write failed: %v", err)
	}
	if hd.OnWrite != nil {
		t.Fatal("the host never saw the physical write")
	}

	got := make([]byte, blockdev.SectorSize)
	err = cd.ReadSector(victim, got)
	if err == nil && bytes.Equal(got, a) {
		t.Fatal("rollback laundered into the root: the victim sector reads its old contents with a valid path")
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("read of the rolled-back sector: %v, want ErrIntegrity", err)
	}
	// The root the TEE now holds is the honest one — the tree over what
	// the guest wrote and the victim's current state — whatever the host
	// left in Meta.
	meta.TamperVersion(victim, newVersion)
	if err := phys.WriteSector(victim, newCT); err != nil {
		t.Fatal(err)
	}
	if ref := refTree(t, phys, meta, n); cd.Root() != ref[1] {
		t.Fatalf("root after the attacked write is %x, the honest tree's is %x", cd.Root(), ref[1])
	}
}

// TestSiblingSwapBetweenVerifyAndUpdate: the victim is the leaf sibling
// of the single sector being written.
func TestSiblingSwapBetweenVerifyAndUpdate(t *testing.T) {
	rollbackDuringWrite(t, 1, 0, 1)
}

// TestSiblingSwapDuringSpanWrite: the written sectors are each other's
// siblings (the update must use the nodes it recomputed for them), and
// the victim sits under the span's sibling subtree one level up.
func TestSiblingSwapDuringSpanWrite(t *testing.T) {
	rollbackDuringWrite(t, 5, 0, 4)
	rollbackDuringWrite(t, 2, 3, 3)
}

// TestVersionFetchedOnce: a host that rewinds the written sector's own
// version inside the same window must not choose the nonce or the leaf
// version — both come from the value the pre-write check verified, so
// the sector never reuses a keystream and reads back under the version
// the TEE computed.
func TestVersionFetchedOnce(t *testing.T) {
	const n = 8
	phys := blockdev.NewMemDisk(n)
	hd := &blockdev.RacingDisk{Disk: phys}
	cd, meta, err := Format(hd, n, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []byte{1, 2, 3} {
		if err := cd.WriteSector(4, sector(seed)); err != nil {
			t.Fatal(err)
		}
	}
	hd.OnWrite = func() { meta.TamperVersion(4, 0) }
	want := sector(9)
	if err := cd.WriteSector(4, want); err != nil {
		t.Fatal(err)
	}
	if v := meta.Version(4); v != 4 {
		t.Fatalf("sector written at version %d, want 4: the host's rewind chose the version", v)
	}
	got := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(4, got); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read after the rewound write: %v", err)
	}
}

// flatDisk is a platter that allocates nothing per operation, so the
// budgets below count the volume's own allocations only.
type flatDisk []byte

func (d flatDisk) Sectors() uint64 { return uint64(len(d) / blockdev.SectorSize) }

func (d flatDisk) ReadSector(lba uint64, buf []byte) error {
	copy(buf, d[lba*blockdev.SectorSize:])
	return nil
}

func (d flatDisk) WriteSector(lba uint64, data []byte) error {
	copy(d[lba*blockdev.SectorSize:], data)
	return nil
}

// TestSectorAllocBudget: what is left per sector is cipher.NewCTR's
// stream state and its IV copy; hashing, the Merkle walk and the write
// scratch allocate nothing.
func TestSectorAllocBudget(t *testing.T) {
	const n = 1024
	for name, phys := range map[string]blockdev.Disk{"flat": flatDisk(make([]byte, n*blockdev.SectorSize)), "MemDisk": blockdev.NewMemDisk(n)} {
		cd, _, err := Format(phys, n, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		buf := sector(1)
		lba := uint64(0)
		step := func(op func(uint64, []byte) error) func() {
			return func() {
				lba = (lba + 7) % n
				if err := op(lba, buf); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < n; i++ { // every sector written once: MemDisk holds its platter
			step(cd.WriteSector)()
		}
		if got := testing.AllocsPerRun(200, step(cd.WriteSector)); got > 4 {
			t.Errorf("%s: WriteSector allocates %.0f times, budget 4", name, got)
		}
		if got := testing.AllocsPerRun(200, step(cd.ReadSector)); got > 2 {
			t.Errorf("%s: ReadSector allocates %.0f times, budget 2", name, got)
		}
	}
}
