// Package cryptdisk is the guest-side data-at-rest layer of the §3.3
// storage generalization: it turns an untrusted block device into one
// whose confidentiality, integrity and freshness the TEE can rely on.
//
//   - Confidentiality: per-sector AES-CTR keyed from the volume key, with
//     a (lba, version) nonce so rewrites never reuse keystream.
//   - Integrity: a Merkle hash tree over SHA-256(ciphertext‖lba‖version)
//     leaves. Tree nodes and per-sector versions live on/with the
//     untrusted disk (TEE memory is scarce); the TEE holds only the
//     32-byte root, so any tampering with data, versions or tree nodes
//     fails path verification.
//   - Freshness: the root changes on every write, so even a *consistent*
//     stale snapshot (data + version + matching tree) is rejected — the
//     rollback attack the tests mount.
//
// This plays the dm-crypt/dm-integrity role from the paper's data-at-rest
// citations, built for mutual distrust from the start.
package cryptdisk

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
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

// Meta is the untrusted metadata store: per-sector versions and the
// Merkle node table. In a real deployment these occupy reserved sectors
// of the same disk; keeping them as a separate host-accessible structure
// makes the attack surface explicit (Tamper* methods).
type Meta struct {
	mu sync.Mutex
	// versions[lba] counts writes to that sector.
	//ciovet:shared host-tamperable: per-sector versions live on the untrusted disk
	versions []uint64
	// nodes holds the binary tree: nodes[1] is the root position,
	// nodes[n..2n-1] are leaves (standard heap layout).
	//ciovet:shared host-tamperable: Merkle nodes live on the untrusted disk
	nodes [][32]byte
	n     int
}

// The four accessors below are the only raw touches of the marked
// host-tamperable arrays; everything else goes through them. The audited
// opt-outs share one argument: these cells are authenticated, not raced —
// every value read here feeds leafHash/nodeHash and is checked against
// the TEE-held root before anything trusts it, so a torn or stale word
// can only produce a detected ErrIntegrity, never silent corruption. The
// mutex exists for Go-level sanity of the in-process host model, not as
// a trust mechanism.

func (m *Meta) version(lba uint64) uint64 {
	return m.versions[lba] //ciovet:allow sharedatomic authenticated-not-raced: the value is verified against the TEE root before use
}

func (m *Meta) setVersion(lba, v uint64) {
	m.versions[lba] = v //ciovet:allow sharedatomic authenticated-not-raced: a torn store is a detected integrity failure, not corruption
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
	return &Meta{versions: make([]uint64, n), nodes: make([][32]byte, 2*n), n: n}, nil
}

// Version returns the (untrusted) version of a sector.
func (m *Meta) Version(lba uint64) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.version(lba)
}

// TamperVersion lets the host rewrite a version (attack surface).
func (m *Meta) TamperVersion(lba, v uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setVersion(lba, v)
}

// TamperNode lets the host rewrite a tree node (attack surface).
func (m *Meta) TamperNode(idx int, h [32]byte) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.setNode(idx, h)
}

// SnapshotFor captures a fully consistent stale view of one sector: its
// version and every tree node on its path plus siblings — everything a
// rollback attacker needs to serve convincing old state.
type SnapshotFor struct {
	LBA     uint64
	Version uint64
	Nodes   map[int][32]byte
}

// Snapshot captures the current consistent state for lba.
func (m *Meta) Snapshot(lba uint64) SnapshotFor {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := SnapshotFor{LBA: lba, Version: m.version(lba), Nodes: map[int][32]byte{}}
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
	m.setVersion(s.LBA, s.Version)
	for i, h := range s.Nodes {
		m.setNode(i, h)
	}
}

// CryptDisk is the TEE-side volume. It holds the key, the Merkle root
// and per-call scratch — nothing else that outlives a call.
type CryptDisk struct {
	mu    sync.Mutex
	phys  blockdev.Disk
	meta  *Meta
	block cipher.Block
	root  [32]byte
	meter *platform.Meter
	n     int
	depth int // tree levels below the root: log2 n

	// Scratch, all under mu, so that a sector costs no allocation. leaf
	// is the keyed leaf hash, reset per sector; hdr and sum are its input
	// trailer and output (fields, not locals: a hash.Hash call would move
	// a local to the heap).
	leaf hash.Hash
	hdr  [16]byte
	sum  [32]byte
	// cur and ct hold a write's pre-read and new ciphertext spans; vers
	// and sibs the version and the leaf-to-root siblings the pre-write
	// check verified for each sector of the span — the only tree state
	// the update may use (see WriteSectors).
	cur, ct []byte
	vers    []uint64
	sibs    [][32]byte
	path    [][32]byte // the nodes the previous sector's update computed, by level
}

// Format initializes a volume over phys covering n sectors (power of
// two), returning the disk and its untrusted metadata store.
func Format(phys blockdev.Disk, n int, key []byte, meter *platform.Meter) (*CryptDisk, *Meta, error) {
	if uint64(n) > phys.Sectors() {
		return nil, nil, fmt.Errorf("%w: %d sectors over %d-sector disk", ErrGeometry, n, phys.Sectors())
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
	macKey := sha256.Sum256(append([]byte("cryptdisk-mac:"), key...))
	depth := bits.Len(uint(n)) - 1
	cd := &CryptDisk{phys: phys, meta: meta, block: block, leaf: hmac.New(sha256.New, macKey[:]),
		meter: meter, n: n, depth: depth, path: make([][32]byte, depth)}

	// Initialize leaves: every sector starts as all-zero ciphertext at
	// version 0 (reading an unwritten sector yields verified zeros).
	zeros := make([]byte, blockdev.SectorSize)
	for i := 0; i < n; i++ {
		meta.setNode(n+i, cd.leafHash(zeros, uint64(i), 0))
	}
	for i := n - 1; i >= 1; i-- {
		meta.setNode(i, nodeHash(meta.node(2*i), meta.node(2*i+1)))
	}
	cd.root = meta.node(1)
	return cd, meta, nil
}

// Sectors returns the volume size.
func (c *CryptDisk) Sectors() uint64 { return uint64(c.n) }

// Root returns the TEE-held Merkle root (for sealing across reboots).
func (c *CryptDisk) Root() [32]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.root
}

func nodeHash(a, b [32]byte) [32]byte {
	var ab [64]byte
	copy(ab[:32], a[:])
	copy(ab[32:], b[:])
	return sha256.Sum256(ab[:])
}

// leafHash authenticates one sector's ciphertext bound to its location
// and version: HMAC-SHA256(ciphertext ‖ lba ‖ version). Caller holds
// c.mu (the keyed state and its buffers are the volume's).
//
//ciovet:locked
func (c *CryptDisk) leafHash(ct []byte, lba, version uint64) [32]byte {
	c.leaf.Reset()
	c.leaf.Write(ct)
	binary.BigEndian.PutUint64(c.hdr[0:], lba)
	binary.BigEndian.PutUint64(c.hdr[8:], version)
	c.leaf.Write(c.hdr[:])
	c.leaf.Sum(c.sum[:0])
	return c.sum
}

// keystream encrypts/decrypts in place with the (lba, version) nonce.
func (c *CryptDisk) keystream(data []byte, lba, version uint64) {
	var iv [16]byte
	binary.BigEndian.PutUint64(iv[0:], lba)
	binary.BigEndian.PutUint64(iv[8:], version)
	cipher.NewCTR(c.block, iv[:]).XORKeyStream(data, data)
	c.meter.Crypto(len(data))
}

// verifyPathLocked checks a leaf against the TEE root using the
// (untrusted) sibling nodes, each fetched exactly once. A path that
// verifies authenticates its siblings too — they hash, with the leaf, to
// the root the TEE holds — so when keep is non-nil the fetched values
// are saved there, leaf level first, for the update that follows.
//
//ciovet:locked
func (c *CryptDisk) verifyPathLocked(lba uint64, leaf [32]byte, keep [][32]byte) error {
	c.meta.mu.Lock()
	defer c.meta.mu.Unlock()
	h := leaf
	for l, i := 0, c.n+int(lba); i > 1; l, i = l+1, i/2 {
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
	if h != c.root {
		return ErrIntegrity
	}
	return nil
}

// updatePathLocked installs sector k of a write span starting at lba —
// its new leaf and version — and advances the root. Nothing is read back
// from the host-tamperable Meta: every sibling is the value the pre-write
// check verified (c.sibs), or, where an earlier sector of this span has
// since changed that node, the value this call computed for it. Sectors
// are updated in ascending order, so at each level the previous sector's
// path either ran through our sibling (take the node it computed),
// through our own node (same sibling: take the one it used), or through
// neither (the snapshot stands).
//
//ciovet:locked
func (c *CryptDisk) updatePathLocked(lba uint64, k int, version uint64, leaf [32]byte) {
	c.meta.mu.Lock()
	defer c.meta.mu.Unlock()
	c.meta.setVersion(lba+uint64(k), version)
	sibs := c.sibs[k*c.depth : (k+1)*c.depth]
	h, i0 := leaf, c.n+int(lba)+k
	for l, i := 0, i0; i > 1; l, i = l+1, i/2 {
		if k > 0 {
			switch prev := (i0 - 1) >> l; prev {
			case i ^ 1:
				sibs[l] = c.path[l]
			case i:
				sibs[l] = c.sibs[(k-1)*c.depth+l]
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
	c.meta.setNode(1, h)
	c.root = h
}

// finishReadLocked verifies and decrypts one freshly read ciphertext
// sector in place. Caller holds c.mu and has bounds-checked lba.
//
//ciovet:locked
func (c *CryptDisk) finishReadLocked(lba uint64, buf []byte) error {
	version := c.meta.Version(lba)
	leaf := c.leafHash(buf, lba, version)
	c.meter.Check(1)
	if err := c.verifyPathLocked(lba, leaf, nil); err != nil {
		return fmt.Errorf("%w: sector %d", err, lba)
	}
	if version == 0 {
		// Never written: the verified all-zero marker decodes to zeros.
		// (A host forging version=0 for a written sector fails the path
		// check above, since the tree's leaf is at version >= 1.)
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	c.keystream(buf, lba, version)
	return nil
}

// ReadSector decrypts and verifies one sector.
func (c *CryptDisk) ReadSector(lba uint64, buf []byte) error {
	if len(buf) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lba >= uint64(c.n) {
		return blockdev.ErrOutOfRange
	}
	if err := c.phys.ReadSector(lba, buf); err != nil {
		return err
	}
	return c.finishReadLocked(lba, buf)
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
	n := uint64(len(p) / blockdev.SectorSize)
	if n == 0 {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if lba >= uint64(c.n) || n > uint64(c.n)-lba {
		return blockdev.ErrOutOfRange
	}
	if err := blockdev.ReadSectors(c.phys, lba, p); err != nil {
		return err
	}
	for i := uint64(0); i < n; i++ {
		if err := c.finishReadLocked(lba+i, p[i*blockdev.SectorSize:(i+1)*blockdev.SectorSize]); err != nil {
			return err
		}
	}
	return nil
}

// WriteSector encrypts and stores one sector and advances the root.
func (c *CryptDisk) WriteSector(lba uint64, data []byte) error {
	if len(data) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	return c.WriteSectors(lba, data)
}

// WriteSectors implements blockdev.BatchDisk: one batched pre-read of
// the current ciphertext span, per-sector path verification of ALL
// sectors before any is replaced (a host that tampered with siblings
// must not trick us into laundering its tree, and a mid-span integrity
// failure must not leave a half-written batch), then one batched write
// of the new ciphertext.
//
// The host can rewrite Meta at any moment, including while the physical
// write crosses the ring, so each sector's version and siblings are
// fetched once — by the pre-write check, which authenticates them
// against the root — and everything after (the nonce, the new leaf, the
// new root) is computed from that snapshot, never from a second read.
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
	if cap(c.cur) < len(data) {
		c.cur, c.ct = make([]byte, len(data)), make([]byte, len(data))
		c.vers, c.sibs = make([]uint64, n), make([][32]byte, n*c.depth)
	}
	cur, ct := c.cur[:len(data)], c.ct[:len(data)]
	if err := blockdev.ReadSectors(c.phys, lba, cur); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		at := lba + uint64(k)
		c.vers[k] = c.meta.Version(at)
		leaf := c.leafHash(cur[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], at, c.vers[k])
		if err := c.verifyPathLocked(at, leaf, c.sibs[k*c.depth:(k+1)*c.depth]); err != nil {
			return fmt.Errorf("%w: pre-write check, sector %d", err, at)
		}
	}

	copy(ct, data)
	for k := 0; k < n; k++ {
		c.keystream(ct[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], lba+uint64(k), c.vers[k]+1)
	}
	if err := blockdev.WriteSectors(c.phys, lba, ct); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		at, version := lba+uint64(k), c.vers[k]+1
		c.updatePathLocked(lba, k, version, c.leafHash(ct[k*blockdev.SectorSize:(k+1)*blockdev.SectorSize], at, version))
	}
	return nil
}
