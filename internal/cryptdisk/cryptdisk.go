// Package cryptdisk is the guest-side data-at-rest layer of the §3.3
// storage generalization: it turns an untrusted block device into one
// whose confidentiality, integrity and freshness the TEE can rely on.
//
//   - Confidentiality and integrity of a sector: one AES-GCM pass keyed
//     from the volume key, under the nonce lba ‖ version. The 16-byte tag
//     authenticates the ciphertext, and — through the nonce — where it
//     sits and which write of that sector it is; a ciphertext moved to
//     another sector or paired with another version does not open.
//   - Freshness: a Merkle hash tree over SHA-256(tag ‖ lba ‖ version)
//     leaves. Tags, versions and the tree's lower levels live on/with the
//     untrusted disk (TEE memory is scarce); the TEE holds one level of
//     the tree, the frontier: the nodes of level min(log2 n, frontierMax),
//     at most 1,024 of them (32 KiB) whatever the volume size. The
//     frontier folds to the root and a write changes it, so tampering
//     with a tag, a version or a node fails path verification, and so
//     does a *consistent* stale snapshot (data + tag + version + matching
//     tree, up to the root) — the rollback attack the tests mount. A path
//     walks only the host-held levels below the frontier; the host's
//     copies of the levels at and above it are never written or read.
//   - Nonce discipline: a GCM nonce used twice forfeits authenticity as
//     well as secrecy, volume-wide. A sector's next version is computed
//     only from the version the frontier just authenticated, fetched once
//     (see WriteSectors), so the host never chooses a nonce.
//
// This plays the dm-crypt/dm-integrity role from the paper's data-at-rest
// citations (the tag is dm-integrity's per-sector metadata), built for
// mutual distrust from the start.
package cryptdisk

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"confio/internal/blockdev"
	"confio/internal/platform"
)

// Errors.
var (
	ErrIntegrity = errors.New("cryptdisk: integrity verification failed")
	ErrGeometry  = errors.New("cryptdisk: bad geometry")
)

// TagSize is the length of a sector's AEAD tag.
const TagSize = 16

// nonceLBABits of the 96-bit GCM nonce hold the sector number; the other
// 64 hold its version. Format refuses a volume with more sectors.
const nonceLBABits = 32

// frontierMax is the deepest tree level the TEE holds: a frontier of at
// most 1<<frontierMax nodes. Each level it saves a path is one nodeHash
// (~200 ns) per read and per written sector.
const frontierMax = 10

// sectorRec is what the host holds for one sector besides its
// ciphertext: how many times it has been written, and the tag the
// current ciphertext was sealed with (version 0: never written, no tag).
type sectorRec struct {
	version uint64
	tag     [TagSize]byte
}

// Meta is the untrusted metadata store: per-sector versions and tags and
// the Merkle node table. In a real deployment these occupy reserved
// sectors of the same disk; keeping them as a separate host-accessible
// structure makes the attack surface explicit (Tamper* methods).
type Meta struct {
	mu sync.Mutex
	// sectors[lba] is that sector's version and tag.
	//ciovet:shared host-tamperable: per-sector versions and tags live on the untrusted disk
	sectors []sectorRec
	// nodes holds the binary tree in heap layout: nodes[1] is the root
	// position, nodes[n..2n-1] are leaves. Only the levels below the
	// volume's frontier are stored; the slots at and above it are never
	// written by the guest and never read.
	//ciovet:shared host-tamperable: Merkle nodes live on the untrusted disk
	nodes [][32]byte
	n     int
}

// The four accessors below are the only raw touches of the marked
// host-tamperable arrays; everything else goes through them. The audited
// opt-outs share one argument: these cells are authenticated, not raced —
// every value read here feeds leafHash/nodeHash and is checked against
// the TEE-held frontier before anything trusts it, so a torn or stale word
// can only produce a detected ErrIntegrity, never silent corruption. The
// mutex exists for Go-level sanity of the in-process host model, not as
// a trust mechanism.

func (m *Meta) sector(lba uint64) sectorRec {
	return m.sectors[lba] //ciovet:allow sharedatomic authenticated-not-raced: the value is verified against the TEE root before use
}

func (m *Meta) setSector(lba uint64, r sectorRec) {
	m.sectors[lba] = r //ciovet:allow sharedatomic authenticated-not-raced: a torn store is a detected integrity failure, not corruption
}

func (m *Meta) node(i int) [32]byte {
	return m.nodes[i] //ciovet:allow sharedatomic authenticated-not-raced: the node is hashed into the root check before use
}

func (m *Meta) setNode(i int, h [32]byte) {
	m.nodes[i] = h //ciovet:allow sharedatomic authenticated-not-raced: a torn store is a detected integrity failure, not corruption
}

// NewMeta allocates metadata for n sectors (power of two).
func NewMeta(n int) (*Meta, error) {
	if n <= 0 || n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: %d sectors not a power of two", ErrGeometry, n)
	}
	return &Meta{sectors: make([]sectorRec, n), nodes: make([][32]byte, 2*n), n: n}, nil
}

// Node returns the (untrusted) tree node at heap index idx.
func (m *Meta) Node(idx int) [32]byte {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.node(idx)
}

// TamperVersion lets the host rewrite a version (attack surface).
func (m *Meta) TamperVersion(lba, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.sector(lba)
	r.version = v
	m.setSector(lba, r)
}

// TamperTag lets the host rewrite a sector's tag (attack surface).
func (m *Meta) TamperTag(lba uint64, tag [TagSize]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.sector(lba)
	r.tag = tag
	m.setSector(lba, r)
}

// TamperNode lets the host rewrite a tree node (attack surface).
func (m *Meta) TamperNode(idx int, h [32]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setNode(idx, h)
}

// SnapshotFor captures a fully consistent stale view of one sector: its
// version, its tag and every tree node on its path plus siblings —
// everything a rollback attacker needs to serve convincing old state.
type SnapshotFor struct {
	LBA     uint64
	Version uint64
	Tag     [TagSize]byte
	Nodes   map[int][32]byte
}

// Snapshot captures the current consistent state for lba.
func (m *Meta) Snapshot(lba uint64) SnapshotFor {
	m.mu.Lock()
	defer m.mu.Unlock()
	r := m.sector(lba)
	s := SnapshotFor{LBA: lba, Version: r.version, Tag: r.tag, Nodes: map[int][32]byte{}}
	for i := m.n + int(lba); i >= 1; i /= 2 {
		s.Nodes[i] = m.node(i)
		if i > 1 {
			s.Nodes[i^1] = m.node(i ^ 1)
		}
	}
	return s
}

// Restore replays a snapshot (the rollback attack's metadata half).
func (m *Meta) Restore(s SnapshotFor) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setSector(s.LBA, sectorRec{version: s.Version, tag: s.Tag})
	for i, h := range s.Nodes {
		m.setNode(i, h)
	}
}

// CryptDisk is the TEE-side volume. It holds the key, the frontier and
// per-call scratch — nothing else that outlives a call.
type CryptDisk struct {
	mu   sync.Mutex
	phys blockdev.Disk
	meta *Meta
	aead cipher.AEAD
	// front is the trusted tree level: the nodes of heap indices
	// [len(front), 2*len(front)), level min(log2 n, frontierMax), with
	// front[lba>>levels] over sector lba. It is the only tree state the
	// TEE holds (a lone root is the frontier of width 1).
	front  [][32]byte
	meter  *platform.Meter
	n      int
	levels int // host-held tree levels on a leaf's path: log2 n - log2 len(front)

	// Scratch, all under mu, so that a sector costs no allocation. nonce
	// is a field, not a local: an argument to an interface method would
	// move a local to the heap.
	nonce [12]byte
	// cur holds the ciphertext span a call read off the platter, ct the
	// span a write seals. cipher.AEAD wants a sector's tag appended to its
	// ciphertext and Meta keeps it apart, so each span has TagSize spare
	// bytes at its end and sector k's tag sits, while k is sealed or
	// opened, on the first bytes of sector k+1's slot: sealing runs
	// forward (slot k+1 is written next), opening backward (slot k+1 has
	// been consumed).
	cur, ct []byte
	// recs and sibs are the record and the host-held siblings the
	// pre-write check verified for each sector of a write span — the only
	// tree state the update may use (see WriteSectors).
	recs []sectorRec
	sibs [][32]byte
	path [][32]byte // the nodes the previous sector's update computed, by level
}

// Format initializes a volume over phys covering n sectors (power of
// two), returning the disk and its untrusted metadata store.
func Format(phys blockdev.Disk, n int, key []byte, meter *platform.Meter) (*CryptDisk, *Meta, error) {
	if uint64(n) > phys.Sectors() {
		return nil, nil, fmt.Errorf("%w: %d sectors over %d-sector disk", ErrGeometry, n, phys.Sectors())
	}
	if uint64(n) > 1<<nonceLBABits {
		return nil, nil, fmt.Errorf("%w: %d sectors do not fit the nonce's %d-bit sector number", ErrGeometry, n, nonceLBABits)
	}
	meta, err := NewMeta(n)
	if err != nil {
		return nil, nil, err
	}
	h := sha256.Sum256(append([]byte("cryptdisk-enc:"), key...))
	block, err := aes.NewCipher(h[:16])
	if err != nil {
		return nil, nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, nil, err
	}
	depth := bits.Len(uint(n)) - 1
	cut := min(depth, frontierMax)
	cd := &CryptDisk{phys: phys, meta: meta, aead: aead, meter: meter, n: n,
		front: make([][32]byte, 1<<cut), levels: depth - cut, path: make([][32]byte, depth-cut)}

	// Build the tree bottom-up from the leaves: every sector starts at
	// version 0 with no tag (reading an unwritten sector yields verified
	// zeros). The levels below the cut go to the host, the cut itself to
	// the frontier; nothing above it is computed.
	for i := 2*n - 1; i >= 1<<cut; i-- {
		var h [32]byte
		if i >= n {
			h = leafHash(uint64(i-n), sectorRec{})
		} else {
			h = nodeHash(meta.node(2*i), meta.node(2*i+1))
		}
		if i < 2<<cut {
			cd.front[i-1<<cut] = h
		} else {
			meta.setNode(i, h)
		}
	}
	return cd, meta, nil
}

// Sectors returns the volume size.
func (c *CryptDisk) Sectors() uint64 { return uint64(c.n) }

// Root folds the frontier to the Merkle root (for sealing across
// reboots). That is len(front)-1 hashes, so nothing on the I/O path
// calls it.
func (c *CryptDisk) Root() [32]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	level := append([][32]byte(nil), c.front...)
	for ; len(level) > 1; level = level[:len(level)/2] {
		for j := range len(level) / 2 {
			level[j] = nodeHash(level[2*j], level[2*j+1])
		}
	}
	return level[0]
}

func nodeHash(a, b [32]byte) [32]byte {
	var ab [64]byte
	copy(ab[:32], a[:])
	copy(ab[32:], b[:])
	return sha256.Sum256(ab[:])
}

// leafHash binds a sector's tag — which authenticates its ciphertext —
// to its location and version: SHA-256(tag ‖ lba ‖ version), one block.
func leafHash(lba uint64, r sectorRec) [32]byte {
	var b [TagSize + 16]byte
	copy(b[:], r.tag[:])
	binary.BigEndian.PutUint64(b[TagSize:], lba)
	binary.BigEndian.PutUint64(b[TagSize+8:], r.version)
	return sha256.Sum256(b[:])
}

// nonceLocked is the GCM nonce of one write of one sector. Caller holds
// c.mu.
//
//ciovet:locked
func (c *CryptDisk) nonceLocked(lba, version uint64) []byte {
	binary.BigEndian.PutUint32(c.nonce[0:], uint32(lba))
	binary.BigEndian.PutUint64(c.nonce[4:], version)
	return c.nonce[:]
}

// spansLocked sizes the scratch for an n-sector call. Caller holds c.mu.
//
//ciovet:locked
func (c *CryptDisk) spansLocked(n int) {
	if size := n*blockdev.SectorSize + TagSize; cap(c.cur) < size {
		c.cur, c.ct = make([]byte, size), make([]byte, size)
		c.recs, c.sibs = make([]sectorRec, n), make([][32]byte, n*c.levels)
	}
}

// verifyLocked authenticates sector lba, whose stored ciphertext is
// sector k of c.cur, and decrypts it into dst. Its record and its
// host-held siblings — those below the frontier — are fetched from the
// (untrusted) Meta exactly once and checked against the frontier node
// over the sector; then the tag, now known to be the one the TEE stored,
// opens the ciphertext under the nonce of that location and version — a
// refusal releases no plaintext. A path that verifies authenticates its
// siblings too — they hash, with the leaf, to a node the TEE holds — so
// when keep is non-nil the fetched values are saved there, leaf level
// first, for the update that follows.
//
//ciovet:locked
func (c *CryptDisk) verifyLocked(lba uint64, k int, dst []byte, keep [][32]byte) (sectorRec, error) {
	c.meta.mu.Lock()
	rec := c.meta.sector(lba)
	h := leafHash(lba, rec)
	for l, i := 0, c.n+int(lba); l < c.levels; l, i = l+1, i/2 {
		sib := c.meta.node(i ^ 1)
		if keep != nil {
			keep[l] = sib
		}
		if i%2 == 0 {
			h = nodeHash(h, sib)
		} else {
			h = nodeHash(sib, h)
		}
	}
	c.meta.mu.Unlock()
	if h != c.front[lba>>c.levels] {
		return rec, ErrIntegrity
	}
	if rec.version == 0 {
		// Never written: the verified marker decodes to zeros, whatever
		// the platter holds. (A host forging version 0 for a written
		// sector fails the path check above, since the tree's leaf is at
		// version >= 1.)
		clear(dst)
		return rec, nil
	}
	sealed := c.cur[k*blockdev.SectorSize : (k+1)*blockdev.SectorSize+TagSize]
	copy(sealed[blockdev.SectorSize:], rec.tag[:])
	if _, err := c.aead.Open(dst[:0], c.nonceLocked(lba, rec.version), sealed, nil); err != nil {
		return rec, ErrIntegrity
	}
	return rec, nil
}

// updatePathLocked installs sector k of a write span starting at lba —
// its new record and its host-held path — and stores the new frontier
// node over it; nothing above the frontier is computed. Nothing is read
// back from the host-tamperable Meta: every sibling is the value the
// pre-write check verified (c.sibs), or, where an earlier sector of this
// span has since changed that node, the value this call computed for it.
// Sectors are updated in ascending order, so at each level the previous
// sector's path either ran through our sibling (take the node it
// computed), through our own node (same sibling: take the one it used),
// or through neither (the snapshot stands).
//
//ciovet:locked
func (c *CryptDisk) updatePathLocked(lba uint64, k int) {
	c.meta.mu.Lock()
	defer c.meta.mu.Unlock()
	at := lba + uint64(k)
	c.meta.setSector(at, c.recs[k])
	sibs := c.sibs[k*c.levels : (k+1)*c.levels]
	h, i0 := leafHash(at, c.recs[k]), c.n+int(at)
	for l, i := 0, i0; l < c.levels; l, i = l+1, i/2 {
		if k > 0 {
			switch prev := (i0 - 1) >> l; prev {
			case i ^ 1:
				sibs[l] = c.path[l]
			case i:
				sibs[l] = c.sibs[(k-1)*c.levels+l]
			}
		}
		c.path[l] = h
		c.meta.setNode(i, h)
		if i%2 == 0 {
			h = nodeHash(h, sibs[l])
		} else {
			h = nodeHash(sibs[l], h)
		}
	}
	c.front[at>>c.levels] = h
}

// ReadSector decrypts and verifies one sector.
func (c *CryptDisk) ReadSector(lba uint64, buf []byte) error {
	if len(buf) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	return c.ReadSectors(lba, buf)
}

// ReadSectors implements blockdev.BatchDisk: the physical I/O for the
// whole contiguous span crosses the storage ring as ONE batched
// submission (one index store, one completion sweep); verification and
// decryption stay strictly per sector — batching amortizes transport
// cost, never trust.
func (c *CryptDisk) ReadSectors(lba uint64, p []byte) error {
	if len(p)%blockdev.SectorSize != 0 {
		return blockdev.ErrBadSize
	}
	n := len(p) / blockdev.SectorSize
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lba >= uint64(c.n) || uint64(n) > uint64(c.n)-lba {
		return blockdev.ErrOutOfRange
	}
	c.spansLocked(n)
	if err := blockdev.ReadSectors(c.phys, lba, c.cur[:len(p)]); err != nil {
		return err
	}
	for k := n - 1; k >= 0; k-- {
		at := lba + uint64(k)
		c.meter.Check(1)
		rec, err := c.verifyLocked(at, k, p[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], nil)
		if err != nil {
			return fmt.Errorf("%w: sector %d", err, at)
		}
		if rec.version != 0 {
			c.meter.Crypto(blockdev.SectorSize)
		}
	}
	return nil
}

// WriteSector encrypts and stores one sector and advances the frontier.
func (c *CryptDisk) WriteSector(lba uint64, data []byte) error {
	if len(data) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	return c.WriteSectors(lba, data)
}

// WriteSectors implements blockdev.BatchDisk: one batched pre-read of
// the current ciphertext span, per-sector verification of ALL sectors
// before any is replaced (a host that tampered with siblings must not
// trick us into laundering its tree, and a mid-span integrity failure
// must not leave a half-written batch), then one batched write of the
// new ciphertext.
//
// The host can rewrite Meta at any moment, including while the physical
// write crosses the ring, so each sector's record and siblings are
// fetched once — by the pre-write check, which authenticates them
// against the frontier — and everything after (the nonce, the new leaf,
// the new frontier node) is computed from that snapshot, never from a
// second read. A version the host could rewind would be a nonce the host
// could repeat; for the same reason a failed physical write still
// advances the tree.
func (c *CryptDisk) WriteSectors(lba uint64, data []byte) error {
	if len(data)%blockdev.SectorSize != 0 {
		return blockdev.ErrBadSize
	}
	n := len(data) / blockdev.SectorSize
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lba >= uint64(c.n) || uint64(n) > uint64(c.n)-lba {
		return blockdev.ErrOutOfRange
	}
	c.spansLocked(n)
	if err := blockdev.ReadSectors(c.phys, lba, c.cur[:len(data)]); err != nil {
		return err
	}
	for k := n - 1; k >= 0; k-- {
		at, slot := lba+uint64(k), c.cur[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize]
		rec, err := c.verifyLocked(at, k, slot, c.sibs[k*c.levels:(k+1)*c.levels])
		if err != nil {
			return fmt.Errorf("%w: pre-write check, sector %d", err, at)
		}
		c.recs[k] = rec
	}

	for k := 0; k < n; k++ {
		rec := &c.recs[k]
		rec.version++
		sealed := c.aead.Seal(c.ct[k*blockdev.SectorSize:k*blockdev.SectorSize], c.nonceLocked(lba+uint64(k), rec.version),
			data[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], nil)
		copy(rec.tag[:], sealed[blockdev.SectorSize:])
		c.meter.Crypto(blockdev.SectorSize)
	}
	// Sealing spent the versions: the host has been handed ciphertext
	// under those nonces whether or not it reports the write done, so the
	// tree advances either way and a retry seals under fresh ones. Where
	// the platter kept its old ciphertext the sector now fails its tag —
	// what a host that drops a write and reports success gets already.
	err := blockdev.WriteSectors(c.phys, lba, c.ct[:len(data)])
	for k := 0; k < n; k++ {
		c.updatePathLocked(lba, k)
	}
	return err
}
