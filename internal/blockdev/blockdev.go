// Package blockdev provides the storage substrate for the paper's §3.3
// generalization: a sector-addressed disk owned by the untrusted host,
// plus the adversarial wrappers the storage attack scenarios need
// (corruption, rollback to stale sectors, content snooping).
package blockdev

import (
	"errors"
	"fmt"
	"sync"
)

// SectorSize is the fixed sector size (4 KiB, matching the page size).
const SectorSize = 4096

// ErrOutOfRange reports an LBA beyond the disk.
var ErrOutOfRange = errors.New("blockdev: lba out of range")

// ErrBadSize reports a buffer that is not exactly one sector.
var ErrBadSize = errors.New("blockdev: buffer must be one sector")

// Disk is the host-side block device interface.
type Disk interface {
	ReadSector(lba uint64, buf []byte) error
	WriteSector(lba uint64, data []byte) error
	Sectors() uint64
}

// BatchDisk is a disk that can move a contiguous span of sectors in one
// operation (len(p) a multiple of SectorSize). Transports that amortize
// per-request cost over a batch — blkring's single index store and
// doorbell per submission window — implement it; layered disks forward
// it so the amortization survives stacking.
type BatchDisk interface {
	Disk
	ReadSectors(lba uint64, p []byte) error
	WriteSectors(lba uint64, p []byte) error
}

// ReadSectors reads len(p)/SectorSize sectors starting at lba through
// the batch interface when d supports it, else sector-by-sector.
func ReadSectors(d Disk, lba uint64, p []byte) error {
	if len(p)%SectorSize != 0 {
		return ErrBadSize
	}
	if bd, ok := d.(BatchDisk); ok {
		return bd.ReadSectors(lba, p)
	}
	for off := 0; off < len(p); off += SectorSize {
		if err := d.ReadSector(lba, p[off:off+SectorSize]); err != nil {
			return err
		}
		lba++
	}
	return nil
}

// WriteSectors writes len(p)/SectorSize sectors starting at lba through
// the batch interface when d supports it, else sector-by-sector.
func WriteSectors(d Disk, lba uint64, p []byte) error {
	if len(p)%SectorSize != 0 {
		return ErrBadSize
	}
	if bd, ok := d.(BatchDisk); ok {
		return bd.WriteSectors(lba, p)
	}
	for off := 0; off < len(p); off += SectorSize {
		if err := d.WriteSector(lba, p[off:off+SectorSize]); err != nil {
			return err
		}
		lba++
	}
	return nil
}

// MemDisk is the honest in-memory disk.
type MemDisk struct {
	mu      sync.Mutex
	sectors [][]byte
	// Reads and Writes count operations (the host can always count them;
	// access-pattern observability is part of the experiment).
	Reads, Writes uint64
}

// NewMemDisk allocates a disk with n sectors.
func NewMemDisk(n uint64) *MemDisk {
	d := &MemDisk{sectors: make([][]byte, n)}
	return d
}

// Sectors returns the disk size in sectors.
func (d *MemDisk) Sectors() uint64 { return uint64(len(d.sectors)) }

// ReadSector copies sector lba into buf.
func (d *MemDisk) ReadSector(lba uint64, buf []byte) error {
	if len(buf) != SectorSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if lba >= uint64(len(d.sectors)) {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lba)
	}
	d.Reads++
	if d.sectors[lba] == nil {
		for i := range buf {
			buf[i] = 0
		}
		return nil
	}
	copy(buf, d.sectors[lba])
	return nil
}

// WriteSector stores data (one sector) at lba.
func (d *MemDisk) WriteSector(lba uint64, data []byte) error {
	if len(data) != SectorSize {
		return ErrBadSize
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if lba >= uint64(len(d.sectors)) {
		return fmt.Errorf("%w: %d", ErrOutOfRange, lba)
	}
	d.Writes++
	if d.sectors[lba] == nil {
		d.sectors[lba] = make([]byte, SectorSize)
	}
	copy(d.sectors[lba], data)
	return nil
}

// --- adversarial wrappers ---

// CorruptingDisk flips a bit in every Nth read.
type CorruptingDisk struct {
	Disk
	Every int
	count uint64
	mu    sync.Mutex
}

// ReadSector corrupts every Nth read.
func (c *CorruptingDisk) ReadSector(lba uint64, buf []byte) error {
	if err := c.Disk.ReadSector(lba, buf); err != nil {
		return err
	}
	c.mu.Lock()
	c.count++
	hit := c.Every > 0 && c.count%uint64(c.Every) == 0
	c.mu.Unlock()
	if hit {
		buf[int(lba)%SectorSize] ^= 0x80
	}
	return nil
}

// RollbackDisk snapshots the disk at a chosen moment and afterwards
// serves the stale snapshot for selected sectors — the classic storage
// rollback attack.
type RollbackDisk struct {
	Disk
	mu       sync.Mutex
	snapshot map[uint64][]byte
	active   bool
}

// Snapshot records the current content of the given sectors.
func (r *RollbackDisk) Snapshot(lbas []uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.snapshot = make(map[uint64][]byte, len(lbas))
	for _, lba := range lbas {
		buf := make([]byte, SectorSize)
		if err := r.Disk.ReadSector(lba, buf); err != nil {
			return err
		}
		r.snapshot[lba] = buf
	}
	return nil
}

// Activate starts serving the snapshot.
func (r *RollbackDisk) Activate() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.active = true
}

// ReadSector serves stale data for snapshotted sectors once active.
func (r *RollbackDisk) ReadSector(lba uint64, buf []byte) error {
	r.mu.Lock()
	stale, ok := r.snapshot[lba]
	active := r.active
	r.mu.Unlock()
	if active && ok {
		copy(buf, stale)
		return nil
	}
	return r.Disk.ReadSector(lba, buf)
}

// SnoopDisk records every byte written, so tests can grep the host's
// view of the platter for plaintext.
type SnoopDisk struct {
	Disk
	mu   sync.Mutex
	seen []byte
}

// WriteSector records the data then forwards.
func (s *SnoopDisk) WriteSector(lba uint64, data []byte) error {
	s.mu.Lock()
	s.seen = append(s.seen, data...)
	s.mu.Unlock()
	return s.Disk.WriteSector(lba, data)
}

// Seen returns everything the host observed crossing to the platter.
func (s *SnoopDisk) Seen() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]byte, len(s.seen))
	copy(out, s.seen)
	return out
}

// RacingDisk is the host acting inside a guest write: OnWrite, when set,
// runs once, before the next write is forwarded — after whatever the
// guest checked before it issued the write and before whatever it does
// once the write returns. The time-of-check/time-of-use scenarios script
// their move through it.
type RacingDisk struct {
	Disk
	OnWrite func()
}

// WriteSector runs the scripted move, then forwards.
func (r *RacingDisk) WriteSector(lba uint64, data []byte) error {
	if f := r.OnWrite; f != nil {
		r.OnWrite = nil
		f()
	}
	return r.Disk.WriteSector(lba, data)
}
