// Package sfs is a small extent-based filesystem over a block device —
// the high-level storage interface of §3.3's generalization ("the second
// [boundary] at a higher level such as file operations"). It runs over
// any blockdev.Disk: the raw host disk (lift-and-shift), the cryptdisk
// integrity layer, or the blkring transport — composing the storage
// designs the experiments compare.
//
// Design: a fixed file table (flat namespace) and contiguous per-file
// extents reserved at creation. Deliberately simple — the experiments
// need realistic *access patterns* (metadata reads, data reads/writes,
// allocation), not POSIX completeness.
package sfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"confio/internal/blockdev"
)

const (
	magic        = 0x5F5F5346 // "SF__"
	entrySize    = 64
	maxNameLen   = 38
	entriesPerSc = blockdev.SectorSize / entrySize
)

// Errors.
var (
	ErrNotFormatted = errors.New("sfs: not an sfs volume")
	ErrExists       = errors.New("sfs: file exists")
	ErrNotFound     = errors.New("sfs: file not found")
	ErrNoSpace      = errors.New("sfs: no space")
	ErrBadName      = errors.New("sfs: bad file name")
	ErrBounds       = errors.New("sfs: access outside file capacity")
)

// entry is one file-table slot.
type entry struct {
	used  bool
	name  string
	size  int64
	start uint64 // first data sector
	capSc uint64 // reserved sectors
}

// FileInfo describes one file.
type FileInfo struct {
	Name     string
	Size     int64
	Capacity int64
}

// FS is a mounted filesystem.
type FS struct {
	mu        sync.Mutex
	d         blockdev.Disk
	maxFiles  int
	tableSc   uint64
	dataStart uint64
	table     []entry
	scratch   []byte
}

// Mkfs formats the disk for up to maxFiles files.
func Mkfs(d blockdev.Disk, maxFiles int) error {
	if maxFiles <= 0 {
		maxFiles = entriesPerSc
	}
	tableSc := uint64((maxFiles + entriesPerSc - 1) / entriesPerSc)
	if 1+tableSc >= d.Sectors() {
		return fmt.Errorf("%w: disk too small for %d files", ErrNoSpace, maxFiles)
	}
	sb := make([]byte, blockdev.SectorSize)
	binary.LittleEndian.PutUint32(sb[0:], magic)
	binary.LittleEndian.PutUint32(sb[4:], uint32(maxFiles))
	binary.LittleEndian.PutUint64(sb[8:], 1+tableSc)
	if err := d.WriteSector(0, sb); err != nil {
		return err
	}
	zero := make([]byte, blockdev.SectorSize)
	for s := uint64(1); s <= tableSc; s++ {
		if err := d.WriteSector(s, zero); err != nil {
			return err
		}
	}
	return nil
}

// Mount opens a formatted disk.
func Mount(d blockdev.Disk) (*FS, error) {
	sb := make([]byte, blockdev.SectorSize)
	if err := d.ReadSector(0, sb); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sb[0:]) != magic {
		return nil, ErrNotFormatted
	}
	maxFiles := int(binary.LittleEndian.Uint32(sb[4:]))
	dataStart := binary.LittleEndian.Uint64(sb[8:])
	fs := &FS{
		d:         d,
		maxFiles:  maxFiles,
		tableSc:   dataStart - 1,
		dataStart: dataStart,
		table:     make([]entry, maxFiles),
		scratch:   make([]byte, blockdev.SectorSize),
	}
	buf := make([]byte, blockdev.SectorSize)
	for i := 0; i < maxFiles; i++ {
		s := uint64(1 + i/entriesPerSc)
		if i%entriesPerSc == 0 {
			if err := d.ReadSector(s, buf); err != nil {
				return nil, err
			}
		}
		fs.table[i] = decodeEntry(buf[(i%entriesPerSc)*entrySize:])
	}
	return fs, nil
}

func decodeEntry(b []byte) entry {
	var e entry
	e.used = b[0] == 1
	nameLen := int(b[1])
	if nameLen > maxNameLen {
		nameLen = maxNameLen
	}
	e.name = string(b[2 : 2+nameLen])
	e.size = int64(binary.LittleEndian.Uint64(b[40:]))
	e.start = binary.LittleEndian.Uint64(b[48:])
	e.capSc = binary.LittleEndian.Uint64(b[56:])
	return e
}

func encodeEntry(b []byte, e entry) {
	for i := range b[:entrySize] {
		b[i] = 0
	}
	if e.used {
		b[0] = 1
	}
	b[1] = byte(len(e.name))
	copy(b[2:2+maxNameLen], e.name)
	binary.LittleEndian.PutUint64(b[40:], uint64(e.size))
	binary.LittleEndian.PutUint64(b[48:], e.start)
	binary.LittleEndian.PutUint64(b[56:], e.capSc)
}

// flushEntry persists one table slot (read-modify-write of its sector).
func (fs *FS) flushEntry(i int) error {
	s := uint64(1 + i/entriesPerSc)
	if err := fs.d.ReadSector(s, fs.scratch); err != nil {
		return err
	}
	encodeEntry(fs.scratch[(i%entriesPerSc)*entrySize:], fs.table[i])
	return fs.d.WriteSector(s, fs.scratch)
}

func (fs *FS) lookup(name string) int {
	for i, e := range fs.table {
		if e.used && e.name == name {
			return i
		}
	}
	return -1
}

// allocExtent finds capSc contiguous free sectors (first fit).
func (fs *FS) allocExtent(capSc uint64) (uint64, error) {
	type ext struct{ start, end uint64 }
	var used []ext
	for _, e := range fs.table {
		if e.used {
			used = append(used, ext{e.start, e.start + e.capSc})
		}
	}
	sort.Slice(used, func(i, j int) bool { return used[i].start < used[j].start })
	cur := fs.dataStart
	for _, u := range used {
		if u.start-cur >= capSc {
			return cur, nil
		}
		if u.end > cur {
			cur = u.end
		}
	}
	if fs.d.Sectors()-cur >= capSc {
		return cur, nil
	}
	return 0, ErrNoSpace
}

func validName(name string) error {
	if name == "" || len(name) > maxNameLen || strings.ContainsRune(name, 0) {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// Create reserves a file with the given byte capacity.
func (fs *FS) Create(name string, capacity int64) error {
	if err := validName(name); err != nil {
		return err
	}
	if capacity <= 0 {
		capacity = blockdev.SectorSize
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.lookup(name) >= 0 {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	slot := -1
	for i, e := range fs.table {
		if !e.used {
			slot = i
			break
		}
	}
	if slot < 0 {
		return fmt.Errorf("%w: file table full", ErrNoSpace)
	}
	capSc := uint64((capacity + blockdev.SectorSize - 1) / blockdev.SectorSize)
	start, err := fs.allocExtent(capSc)
	if err != nil {
		return err
	}
	// Zero the extent in batched spans: reused sectors must never leak a
	// deleted file's contents into the new file's unwritten ranges, and
	// over a batch-capable disk each span is one ring submission.
	const zeroSpan = 16
	zero := make([]byte, zeroSpan*blockdev.SectorSize)
	for s := start; s < start+capSc; {
		n := start + capSc - s
		if n > zeroSpan {
			n = zeroSpan
		}
		if err := blockdev.WriteSectors(fs.d, s, zero[:n*blockdev.SectorSize]); err != nil {
			return err
		}
		s += n
	}
	fs.table[slot] = entry{used: true, name: name, size: 0, start: start, capSc: capSc}
	return fs.flushEntry(slot)
}

// Write stores p at byte offset off, growing the file size as needed
// (within its reserved capacity).
func (fs *FS) Write(name string, off int64, p []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i := fs.lookup(name)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e := &fs.table[i]
	if off < 0 || off+int64(len(p)) > int64(e.capSc)*blockdev.SectorSize {
		return fmt.Errorf("%w: write [%d,%d) cap %d", ErrBounds, off, off+int64(len(p)), int64(e.capSc)*blockdev.SectorSize)
	}
	buf := fs.scratch // the unaligned bounce; flushEntry reuses it only after the loop
	for len(p) > 0 {
		sc := e.start + uint64(off/blockdev.SectorSize)
		inOff := int(off % blockdev.SectorSize)
		if inOff == 0 && len(p) >= blockdev.SectorSize {
			// Sector-aligned run: hand the whole span to the disk in one
			// batched write (one ring submission over blkring) with no
			// read-modify-write and no staging copy.
			run := len(p) / blockdev.SectorSize * blockdev.SectorSize
			if err := blockdev.WriteSectors(fs.d, sc, p[:run]); err != nil {
				return err
			}
			p = p[run:]
			off += int64(run)
			continue
		}
		n := blockdev.SectorSize - inOff
		if n > len(p) {
			n = len(p)
		}
		if err := fs.d.ReadSector(sc, buf); err != nil {
			return err
		}
		copy(buf[inOff:], p[:n])
		if err := fs.d.WriteSector(sc, buf); err != nil {
			return err
		}
		p = p[n:]
		off += int64(n)
	}
	if off > e.size {
		e.size = off
		return fs.flushEntry(i)
	}
	return nil
}

// Read fills p from byte offset off, returning the bytes read (short at
// end of file).
func (fs *FS) Read(name string, off int64, p []byte) (int, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i := fs.lookup(name)
	if i < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	e := fs.table[i]
	if off < 0 || off > e.size {
		return 0, fmt.Errorf("%w: read at %d size %d", ErrBounds, off, e.size)
	}
	if rem := e.size - off; int64(len(p)) > rem {
		p = p[:rem]
	}
	total := 0
	buf := fs.scratch // the unaligned bounce
	for len(p) > 0 {
		sc := e.start + uint64(off/blockdev.SectorSize)
		inOff := int(off % blockdev.SectorSize)
		if inOff == 0 && len(p) >= blockdev.SectorSize {
			// Sector-aligned run: one batched read straight into the
			// caller's buffer, no per-sector bounce.
			run := len(p) / blockdev.SectorSize * blockdev.SectorSize
			if err := blockdev.ReadSectors(fs.d, sc, p[:run]); err != nil {
				return total, err
			}
			p = p[run:]
			off += int64(run)
			total += run
			continue
		}
		if err := fs.d.ReadSector(sc, buf); err != nil {
			return total, err
		}
		n := copy(p, buf[inOff:])
		p = p[n:]
		off += int64(n)
		total += n
	}
	return total, nil
}

// Size returns a file's current size.
func (fs *FS) Size(name string) (int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i := fs.lookup(name)
	if i < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return fs.table[i].size, nil
}

// Delete removes a file and frees its extent.
func (fs *FS) Delete(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	i := fs.lookup(name)
	if i < 0 {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	fs.table[i] = entry{}
	return fs.flushEntry(i)
}

// List returns all files sorted by name.
func (fs *FS) List() []FileInfo {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var out []FileInfo
	for _, e := range fs.table {
		if e.used {
			out = append(out, FileInfo{Name: e.name, Size: e.size, Capacity: int64(e.capSc) * blockdev.SectorSize})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
