package cryptdisk

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"testing"

	"confio/internal/blockdev"
)

// Tests for the on-disk format and the single-snapshot Merkle update: the
// format is pinned against an independent reference, the update may use
// no tree state but what the pre-write check verified, and the per-sector
// allocation budget — nothing — is a test.

// refAEAD is the sector cipher built a second time, from the volume key,
// by the test: the reference below seals with it, never with the
// volume's own instance.
func refAEAD(t *testing.T) cipher.AEAD {
	t.Helper()
	k := sha256.Sum256(append([]byte("cryptdisk-enc:"), key...))
	block, err := aes.NewCipher(k[:16])
	if err != nil {
		t.Fatal(err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		t.Fatal(err)
	}
	return aead
}

func refLeafHash(tag []byte, lba, version uint64) [32]byte {
	b := append([]byte{}, tag...)
	b = binary.BigEndian.AppendUint64(b, lba)
	b = binary.BigEndian.AppendUint64(b, version)
	return sha256.Sum256(b)
}

func refNodeHash(a, b [32]byte) [32]byte {
	return sha256.Sum256(append(a[:], b[:]...))
}

// refTree builds the whole node table of an n-sector volume from the
// versions and a shadow of the plaintext, which covers the sectors the
// test writes (a prefix of the volume; a sector past it must be
// unwritten): each written sector is sealed again by the reference
// cipher under lba ‖ version, the result must be the ciphertext on the
// platter and the tag in Meta, and the leaf is hashed from that
// recomputed tag.
func refTree(t *testing.T, phys blockdev.Disk, meta *Meta, shadow []byte, n int) [][32]byte {
	t.Helper()
	aead := refAEAD(t)
	nodes := make([][32]byte, 2*n)
	ct := make([]byte, blockdev.SectorSize)
	for i := 0; i < n; i++ {
		meta.mu.Lock()
		rec := meta.sector(uint64(i))
		meta.mu.Unlock()
		tag := make([]byte, TagSize)
		if rec.version != 0 {
			if (i+1)*blockdev.SectorSize > len(shadow) {
				t.Fatalf("sector %d is at version %d, past the shadow of what the test wrote", i, rec.version)
			}
			nonce := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, uint32(i)), rec.version)
			sealed := aead.Seal(nil, nonce, shadow[i*blockdev.SectorSize:(i+1)*blockdev.SectorSize], nil)
			if err := phys.ReadSector(uint64(i), ct); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ct, sealed[:blockdev.SectorSize]) {
				t.Fatalf("sector %d version %d: platter does not hold the reference ciphertext", i, rec.version)
			}
			tag = sealed[blockdev.SectorSize:]
		}
		if !bytes.Equal(rec.tag[:], tag) {
			t.Fatalf("sector %d version %d: Meta holds tag %x, the reference seals to %x", i, rec.version, rec.tag, tag)
		}
		nodes[n+i] = refLeafHash(tag, uint64(i), rec.version)
	}
	for i := n - 1; i >= 1; i-- {
		nodes[i] = refNodeHash(nodes[2*i], nodes[2*i+1])
	}
	return nodes
}

// checkAgainstRef compares the volume's root, its frontier and every
// host-held node with a tree rebuilt from scratch by the reference
// functions, and requires the host's slots at and above the frontier to
// hold nothing: no copy of a trusted node is left on the host.
func checkAgainstRef(t *testing.T, cd *CryptDisk, meta *Meta, phys blockdev.Disk, shadow []byte, n int, when string) {
	t.Helper()
	ref := refTree(t, phys, meta, shadow, n)
	if cd.Root() != ref[1] {
		t.Fatalf("%s: root %x, reference tree says %x", when, cd.Root(), ref[1])
	}
	w := len(cd.front)
	for j, got := range cd.front {
		if got != ref[w+j] {
			t.Fatalf("%s: frontier node %d is %x, reference tree says %x", when, w+j, got, ref[w+j])
		}
	}
	for i := 1; i < 2*n; i++ {
		want := ref[i]
		if i < 2*w {
			want = [32]byte{}
		}
		if got := meta.Node(i); got != want {
			t.Fatalf("%s: host node %d is %x, want %x", when, i, got, want)
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
// 8-sector volume and the root after a single and a two-sector write.
// The values were recorded once from the reference above (refLeafHash,
// and refTree over the same three writes): the on-disk format moves only
// when someone re-records them.
func TestHashKnownAnswers(t *testing.T) {
	cd, _, _ := volume(t, 8)
	rec := sectorRec{version: 3}
	for i := range rec.tag {
		rec.tag[i] = byte(0x42 + i)
	}
	if got, want := leafHash(5, rec), unhex(t, "90149534d9e48bbc3eab690c335d5956bac589e5eeccb2539ca0a30e2ccbff04"); got != want {
		t.Errorf("leafHash = %x, want %x", got, want)
	}
	var a, b [32]byte
	for i := range a {
		a[i], b[i] = byte(i), byte(0xF0-i)
	}
	if got, want := nodeHash(a, b), unhex(t, "0da0b9c7ece01d15225e3545c55b3e98ab8a6e94424ddbcdb71534b708d2c597"); got != want {
		t.Errorf("nodeHash = %x, want %x", got, want)
	}
	if got, want := cd.Root(), unhex(t, "7232618db2ae125cb674fe87acc82feaf6f0f14e81d1ad5d9f5cea0396a4b35e"); got != want {
		t.Errorf("Format root = %x, want %x", got, want)
	}
	if err := cd.WriteSector(2, sector(7)); err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteSectors(4, append(sector(1), sector(2)...)); err != nil {
		t.Fatal(err)
	}
	if got, want := cd.Root(), unhex(t, "9dfd6f818077c51147e4e555c56e750da73575c2238e94c2c26469c24005bdbd"); got != want {
		t.Errorf("root after two writes = %x, want %x", got, want)
	}
}

// TestFormatMatchesReference: a freshly formatted volume, and the same
// volume after single-sector writes and after spans whose sectors are
// each other's siblings at every host-held level, stores exactly the
// ciphertext, tags and tree the reference builds from the plaintext and
// the versions with its own cipher — the host-held levels in Meta, the
// frontier in the TEE, nothing above — so the format is what the package
// comment says it is, node for node, and the span update's overlay of
// recomputed siblings is right.
func TestFormatMatchesReference(t *testing.T) {
	const n = 16 << frontierMax // the spans below cross four host-held levels
	cd, meta, phys := volume(t, n)
	shadow := make([]byte, 16*blockdev.SectorSize)
	checkAgainstRef(t, cd, meta, phys, shadow, n, "after Format")
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
	checkAgainstRef(t, cd, meta, phys, shadow, n, "after one sector")
	for _, span := range [][2]int{{0, 2}, {3, 2}, {1, 6}, {7, 9}, {0, 16}, {6, 5}} {
		write(span[0], span[1], byte(span[0]*16+span[1]))
		checkAgainstRef(t, cd, meta, phys, shadow, n, "after a span")
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
// re-reads siblings from Meta folds the stale nodes into the new frontier
// node, and the victim then reads A with a valid path. The volume is deep
// (see deep), so every node the host puts back is one the guest reads.
func rollbackDuringWrite(t *testing.T, victim uint64, lba uint64, sectors int) {
	t.Helper()
	const n = deep
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
	current, newCT := meta.Snapshot(victim), make([]byte, blockdev.SectorSize)
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
		t.Fatal("rollback laundered into the frontier: the victim sector reads its old contents with a valid path")
	}
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("read of the rolled-back sector: %v, want ErrIntegrity", err)
	}
	// The frontier the TEE now holds folds to the honest root — the tree
	// over what the guest wrote and the victim's current state — whatever
	// the host left in Meta.
	meta.TamperVersion(victim, current.Version)
	meta.TamperTag(victim, current.Tag)
	if err := phys.WriteSector(victim, newCT); err != nil {
		t.Fatal(err)
	}
	shadow := make([]byte, 8*blockdev.SectorSize)
	copy(shadow[victim*blockdev.SectorSize:], b)
	copy(shadow[lba*blockdev.SectorSize:], p)
	if ref := refTree(t, phys, meta, shadow, n); cd.Root() != ref[1] {
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
// version — or swaps its tag — inside the same window must not choose
// the nonce or the leaf: both come from the record the pre-write check
// verified. A GCM nonce used twice forfeits the volume's authenticity, so
// the same plaintext is written three times and the host makes its move
// inside the second write: an update that stored a version it fetched
// again would have the third write seal under the second one's nonce and
// put the same ciphertext on the platter.
func TestVersionFetchedOnce(t *testing.T) {
	const n, lba = deep, 4
	moves := map[string]func(meta *Meta, old uint64){
		"version rewound to zero": func(meta *Meta, old uint64) { meta.TamperVersion(lba, 0) },
		"version rewound by one":  func(meta *Meta, old uint64) { meta.TamperVersion(lba, old-1) },
		"tag swapped":             func(meta *Meta, old uint64) { meta.TamperTag(lba, [TagSize]byte{0xEE}) },
	}
	for name, move := range moves {
		phys := blockdev.NewMemDisk(n)
		hd := &blockdev.RacingDisk{Disk: phys}
		cd, meta, err := Format(hd, n, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []byte{1, 2, 3} {
			if err := cd.WriteSector(lba, sector(seed)); err != nil {
				t.Fatal(err)
			}
		}
		want, got := sector(9), make([]byte, blockdev.SectorSize)
		var seen [3][]byte // the platter after each write of the same plaintext
		for i := range seen {
			old := meta.Snapshot(lba).Version
			if i == 1 {
				hd.OnWrite = func() { move(meta, old) }
			}
			if err := cd.WriteSector(lba, want); err != nil {
				t.Fatalf("%s: write %d: %v", name, i, err)
			}
			if hd.OnWrite != nil {
				t.Fatalf("%s: the host never saw the physical write", name)
			}
			if v := meta.Snapshot(lba).Version; v != old+1 {
				t.Fatalf("%s: write %d stored version %d, want %d: the host's move chose the version", name, i, v, old+1)
			}
			seen[i] = make([]byte, blockdev.SectorSize)
			if err := phys.ReadSector(lba, seen[i]); err != nil {
				t.Fatal(err)
			}
			for j := 0; j < i; j++ {
				if bytes.Equal(seen[i], seen[j]) {
					t.Fatalf("%s: writes %d and %d sealed one plaintext to one ciphertext: the nonce was reused", name, j, i)
				}
			}
			if err := cd.ReadSector(lba, got); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s: read after write %d: %v", name, i, err)
			}
		}
	}
}

// refusingDisk fails the next write it is handed: it keeps the ciphertext
// (the host has seen it) and, when drop is set, does not store it.
type refusingDisk struct {
	blockdev.Disk
	armed, drop bool
	handed      []byte
}

func (d *refusingDisk) WriteSector(lba uint64, data []byte) error {
	if !d.armed {
		return d.Disk.WriteSector(lba, data)
	}
	d.armed, d.handed = false, append([]byte{}, data...)
	if !d.drop {
		if err := d.Disk.WriteSector(lba, data); err != nil {
			return err
		}
	}
	return errors.New("host: write failed")
}

// TestFailedWriteSpendsItsVersion: the host fails a write after it has
// been handed the ciphertext. The nonce it was sealed under is gone: the
// version advances anyway, and a retry of the same plaintext reaches the
// platter as a different ciphertext. A platter that dropped the write is
// a sector that fails its tag — refused, never served stale.
func TestFailedWriteSpendsItsVersion(t *testing.T) {
	const n, lba = deep, 3
	for _, drop := range []bool{false, true} {
		phys := blockdev.NewMemDisk(n)
		hd := &refusingDisk{Disk: phys, drop: drop}
		cd, meta, err := Format(hd, n, key, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := cd.WriteSector(lba, sector(1)); err != nil {
			t.Fatal(err)
		}
		old, want := meta.Snapshot(lba).Version, sector(2)
		hd.armed = true
		if err := cd.WriteSector(lba, want); err == nil || errors.Is(err, ErrIntegrity) {
			t.Fatalf("drop=%v: failed write returned %v, want the host's error", drop, err)
		}
		if v := meta.Snapshot(lba).Version; v != old+1 {
			t.Fatalf("drop=%v: version %d after a failed write, want %d: its nonce can be sealed under again", drop, v, old+1)
		}
		got := make([]byte, blockdev.SectorSize)
		err = cd.ReadSector(lba, got)
		if drop {
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("read of a sector whose write the host dropped: %v, want ErrIntegrity", err)
			}
			continue
		}
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("read of a sector whose write the host took: %v", err)
		}
		if err := cd.WriteSector(lba, want); err != nil {
			t.Fatalf("retry: %v", err)
		}
		if err := phys.ReadSector(lba, got); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, hd.handed) {
			t.Fatal("the retry sealed the same plaintext to the ciphertext of the failed write: the nonce was reused")
		}
	}
}

// TestTagTamperDetected: the tag is host-held like the version, and like
// the version it is under the root.
func TestTagTamperDetected(t *testing.T) {
	cd, meta, _ := volume(t, 8)
	if err := cd.WriteSector(1, sector(3)); err != nil {
		t.Fatal(err)
	}
	tag := meta.Snapshot(1).Tag
	tag[0] ^= 1
	meta.TamperTag(1, tag)
	buf := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(1, buf); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tag tamper not detected on read: %v", err)
	}
	if err := cd.WriteSector(1, sector(4)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("tag tamper not detected by the pre-write check: %v", err)
	}
}

// TestSectorTransplantDetected: the host copies sector a's ciphertext,
// tag and version onto sector b and recomputes b's leaf and every
// host-held ancestor, so Meta is a consistent tree over the transplant.
// The frontier the TEE holds refuses it; and were the frontier not there
// to refuse it, the ciphertext still would not open at b, because the
// nonce it was sealed under names a.
func TestSectorTransplantDetected(t *testing.T) {
	const n, a, b = deep, 2, 5
	cd, meta, phys := volume(t, n)
	secret := sector(0x51)
	if err := cd.WriteSector(a, secret); err != nil {
		t.Fatal(err)
	}
	if err := cd.WriteSector(b, sector(0x52)); err != nil {
		t.Fatal(err)
	}
	ct := make([]byte, blockdev.SectorSize)
	if err := phys.ReadSector(a, ct); err != nil {
		t.Fatal(err)
	}
	if err := phys.WriteSector(b, ct); err != nil {
		t.Fatal(err)
	}
	from := meta.Snapshot(a)
	meta.TamperVersion(b, from.Version)
	meta.TamperTag(b, from.Tag)
	h := leafHash(b, sectorRec{version: from.Version, tag: from.Tag})
	for l, i := 0, n+b; l < cd.levels; l, i = l+1, i/2 {
		meta.TamperNode(i, h)
		sib := meta.Node(i ^ 1)
		if i%2 == 0 {
			h = nodeHash(h, sib)
		} else {
			h = nodeHash(sib, h)
		}
	}

	got := make([]byte, blockdev.SectorSize)
	if err := cd.ReadSector(b, got); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("transplanted sector: %v, want ErrIntegrity", err)
	}
	if err := cd.WriteSector(b, sector(0x53)); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("write over a transplanted sector: %v, want ErrIntegrity", err)
	}
	cd.front[b>>cd.levels] = h // what no host can do: the TEE adopts the host's tree
	if err := cd.ReadSector(b, got); !errors.Is(err, ErrIntegrity) || bytes.Contains(got, secret[:64]) {
		t.Fatalf("transplanted sector under the host's own frontier: %v, want ErrIntegrity and no plaintext", err)
	}
	if err := cd.ReadSector(a, got); err != nil || !bytes.Equal(got, secret) {
		t.Fatalf("the sector that was copied from: %v", err)
	}
}

// TestRefusedSectorReleasesNoPlaintext: one flipped ciphertext bit flips
// one plaintext bit under a counter mode, so a read that decrypted first
// and refused afterwards would leave the rest of the sector in the
// caller's buffer. After a refusal the buffer holds none of it.
func TestRefusedSectorReleasesNoPlaintext(t *testing.T) {
	cd, _, phys := volume(t, 8)
	want := sector(3)
	if err := cd.WriteSectors(1, append(append([]byte{}, want...), want...)); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, blockdev.SectorSize)
	if err := phys.ReadSector(2, raw); err != nil {
		t.Fatal(err)
	}
	raw[100] ^= 1
	if err := phys.WriteSector(2, raw); err != nil {
		t.Fatal(err)
	}
	released := func(buf []byte) bool {
		for off := 0; off+16 <= len(want); off += 16 {
			if bytes.Contains(buf, want[off:off+16]) {
				return true
			}
		}
		return false
	}
	buf := bytes.Repeat([]byte{0x5A}, blockdev.SectorSize)
	if err := cd.ReadSector(2, buf); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corruption not detected: %v", err)
	}
	if released(buf) {
		t.Fatal("a refused read left plaintext of the sector in the caller's buffer")
	}
	// In a span, the refused sector's slot stays clean whatever its
	// neighbours held.
	span := bytes.Repeat([]byte{0x5A}, 2*blockdev.SectorSize)
	if err := cd.ReadSectors(1, span); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("corruption in a span not detected: %v", err)
	}
	if released(span[blockdev.SectorSize:]) {
		t.Fatal("a refused span read left the refused sector's plaintext in the caller's buffer")
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

// TestSectorAllocBudget: nothing. The AEAD, the hashing, the Merkle walk
// and the scratch spans allocate nothing per sector.
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
		if got := testing.AllocsPerRun(200, step(cd.WriteSector)); got != 0 {
			t.Errorf("%s: WriteSector allocates %.0f times, budget 0", name, got)
		}
		if got := testing.AllocsPerRun(200, step(cd.ReadSector)); got != 0 {
			t.Errorf("%s: ReadSector allocates %.0f times, budget 0", name, got)
		}
	}
}
