// Package stio assembles the §3.3 storage designs — the paper's claim
// that the dual-boundary recipe "should map well to other I/O boundaries
// that also have observability problems, e.g., storage":
//
//   - HostFiles: the lift-and-shift / library-OS position. The
//     filesystem runs on the untrusted host; the guest proxies file
//     operations across the TEE boundary. The host sees names, sizes,
//     offsets, *and contents*.
//
//   - BlockRing: the low-boundary position. The filesystem plus the
//     encryption/integrity layer run in the TEE; the host serves opaque
//     sectors through the safe block ring. The host sees only the block
//     access pattern.
//
//   - DualStorage: the dual-boundary position. The filesystem and block
//     driver live in a distrusted I/O compartment behind a gate; the
//     application seals record contents before they enter the
//     compartment (the storage analogue of the mandatory TLS layer), so
//     compromising the filesystem yields access patterns, not data.
package stio

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/compartment"
	"confio/internal/cryptdisk"
	"confio/internal/observe"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/sfs"
	"confio/internal/tcb"
	"confio/internal/workload"
)

// DesignID names a storage design point.
type DesignID string

// The storage design points.
const (
	HostFiles   DesignID = "host-files"
	BlockRing   DesignID = "block-ring"
	DualStorage DesignID = "dual-storage"
)

// Designs lists the storage design points.
func Designs() []DesignID { return []DesignID{HostFiles, BlockRing, DualStorage} }

// FileOps is the application-visible storage interface of every design.
type FileOps interface {
	Create(name string, capacity int64) error
	Write(name string, off int64, p []byte) error
	Read(name string, off int64, p []byte) (int, error)
	Delete(name string) error
}

// Storage TCB components that are not packages of this repository (the
// filesystem, the data-at-rest layer and the ring are, and are weighed in
// the tcb catalog).
var (
	compSeal   = tcb.Component{Name: "record-seal", LoC: 90, Role: "app-level record AEAD"}
	compFShim  = tcb.Component{Name: "hostfile-shim", LoC: 100, Role: "file-op proxy"}
	compAppOnl = []tcb.Component{tcb.CompApp}
)

// TCBOf returns core and TEE-total profiles for a storage design.
func TCBOf(id DesignID) (core, teeTotal tcb.Profile) {
	switch id {
	case HostFiles:
		p := tcb.Profile{Name: string(id), Components: append(append([]tcb.Component{}, compAppOnl...), compFShim)}
		return p, p
	case BlockRing:
		p := tcb.Profile{Name: string(id), Components: append(append([]tcb.Component{}, compAppOnl...),
			tcb.CompSFS, tcb.CompCryptdisk, tcb.CompBlkring)}
		return p, p
	case DualStorage:
		core := tcb.Profile{Name: string(id) + "-core", Components: append(append([]tcb.Component{}, compAppOnl...),
			compSeal, tcb.CompGate)}
		total := tcb.Profile{Name: string(id) + "-tee", Components: append(append([]tcb.Component{}, core.Components...),
			tcb.CompSFS, tcb.CompCryptdisk, tcb.CompBlkring)}
		return core, total
	default:
		return tcb.Profile{}, tcb.Profile{}
	}
}

// World is one assembled storage design.
type World struct {
	ID    DesignID
	Meter *platform.Meter
	Obs   *observe.Meter

	ops   FileOps
	snoop *blockdev.SnoopDisk
	phys  *blockdev.MemDisk
	meta  *cryptdisk.Meta // nil for HostFiles
	gate  *compartment.Gate

	closers []func()
}

const volumeSectors = 1024

// NewWorld assembles a storage design point.
func NewWorld(id DesignID) (*World, error) {
	w := &World{
		ID:    id,
		Meter: &platform.Meter{},
		Obs:   observe.NewMeter(),
		phys:  blockdev.NewMemDisk(volumeSectors),
	}
	w.snoop = &blockdev.SnoopDisk{Disk: w.phys}

	switch id {
	case HostFiles:
		// The filesystem runs on the host over the raw disk.
		if err := sfs.Mkfs(w.snoop, 64); err != nil {
			return nil, err
		}
		fs, err := sfs.Mount(w.snoop)
		if err != nil {
			return nil, err
		}
		w.ops = &hostFileShim{fs: fs, meter: w.Meter, obs: w.Obs}

	case BlockRing, DualStorage:
		// Host side: an observability-counting disk behind the ring.
		obsDisk := &patternDisk{Disk: w.snoop, obs: w.Obs}
		ep, err := blkring.New(64, obsDisk.Sectors(), w.Meter)
		if err != nil {
			return nil, err
		}
		be := blkring.NewBackend(ep.Shared(), obsDisk)
		be.Start()
		w.closers = append(w.closers, be.Stop)
		// The storage boundary gets the same host-stall coverage as the
		// network one: the generic watchdog ages the request ring's
		// consumer index and fail-deads the device on a freeze.
		wd := safering.NewWatchdog(safering.DefaultWatchdogConfig(), ep)
		wd.Start()
		w.closers = append(w.closers, wd.Stop)

		cd, meta, err := cryptdisk.Format(ep, volumeSectors, []byte("volume-"+string(id)), w.Meter)
		if err != nil {
			return nil, err
		}
		w.meta = meta
		if err := sfs.Mkfs(cd, 64); err != nil {
			return nil, err
		}
		fs, err := sfs.Mount(cd)
		if err != nil {
			return nil, err
		}
		if id == BlockRing {
			w.ops = plainFS{fs}
		} else {
			app := compartment.NewDomain("app", w.Meter)
			ioDom := compartment.NewDomain("io", w.Meter)
			w.gate = compartment.NewGate(app, ioDom, w.Meter)
			sealKey := sha256.Sum256([]byte("record-key-" + string(id)))
			sealed, err := newSealedFS(fs, w.gate, sealKey[:16])
			if err != nil {
				return nil, err
			}
			w.ops = sealed
		}
	default:
		return nil, fmt.Errorf("stio: unknown design %q", id)
	}
	return w, nil
}

// Ops returns the design's file interface.
func (w *World) Ops() FileOps { return w.ops }

// Meta exposes the cryptdisk metadata (attack surface), nil for HostFiles.
func (w *World) Meta() *cryptdisk.Meta { return w.meta }

// Phys exposes the raw host disk (attack surface).
func (w *World) Phys() *blockdev.MemDisk { return w.phys }

// Snoop returns everything the host saw written to the platter.
func (w *World) Snoop() []byte { return w.snoop.Seen() }

// Costs snapshots the confidential-side cost meter.
func (w *World) Costs() platform.Costs { return w.Meter.Snapshot() }

// Observability reports the host's view.
func (w *World) Observability() observe.Report { return w.Obs.Report() }

// Close tears the world down.
func (w *World) Close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		w.closers[i]()
	}
	w.closers = nil
}

// --- HostFiles shim ---

// hostFileShim proxies file operations to the host filesystem: per-call
// TEE crossings, and full visibility for the host.
type hostFileShim struct {
	fs    *sfs.FS
	meter *platform.Meter
	obs   *observe.Meter
}

func (h *hostFileShim) Create(name string, capacity int64) error {
	h.meter.CrossTEE(2)
	h.obs.Observe(observe.ChCallPattern, 0)
	h.obs.Observe(observe.ChSocketMeta, len(name)) // namespace metadata
	return h.fs.Create(name, capacity)
}

func (h *hostFileShim) Write(name string, off int64, p []byte) error {
	h.meter.CrossTEE(2)
	h.meter.Copy(len(p))
	h.obs.Observe(observe.ChCallPattern, len(p))
	h.obs.Observe(observe.ChPayload, len(p)) // plaintext crosses to the host
	return h.fs.Write(name, off, p)
}

func (h *hostFileShim) Read(name string, off int64, p []byte) (int, error) {
	h.meter.CrossTEE(2)
	n, err := h.fs.Read(name, off, p)
	h.meter.Copy(n)
	h.obs.Observe(observe.ChCallPattern, n)
	h.obs.Observe(observe.ChPayload, n)
	return n, err
}

func (h *hostFileShim) Delete(name string) error {
	h.meter.CrossTEE(2)
	h.obs.Observe(observe.ChCallPattern, 0)
	h.obs.Observe(observe.ChSocketMeta, len(name))
	return h.fs.Delete(name)
}

// --- block designs ---

// patternDisk records the block access pattern the host observes.
type patternDisk struct {
	blockdev.Disk
	obs *observe.Meter
}

func (p *patternDisk) ReadSector(lba uint64, buf []byte) error {
	p.obs.Observe(observe.ChDescriptorMeta, blockdev.SectorSize)
	return p.Disk.ReadSector(lba, buf)
}

func (p *patternDisk) WriteSector(lba uint64, data []byte) error {
	p.obs.Observe(observe.ChDescriptorMeta, blockdev.SectorSize)
	return p.Disk.WriteSector(lba, data)
}

// plainFS adapts *sfs.FS to FileOps.
type plainFS struct{ fs *sfs.FS }

func (p plainFS) Create(name string, capacity int64) error     { return p.fs.Create(name, capacity) }
func (p plainFS) Write(name string, off int64, b []byte) error { return p.fs.Write(name, off, b) }
func (p plainFS) Read(name string, off int64, b []byte) (int, error) {
	return p.fs.Read(name, off, b)
}
func (p plainFS) Delete(name string) error { return p.fs.Delete(name) }

// --- DualStorage: sealed records through the gate ---

// sealedFS seals record contents in the application domain before they
// enter the (distrusted) filesystem compartment, and crosses the gate
// for every operation. Offsets are record-aligned: each Write/Read
// handles one sealed record (AEAD with a name+offset-bound nonce).
type sealedFS struct {
	fs   *sfs.FS
	gate *compartment.Gate
	aead cipher.AEAD
}

// sealOverhead is the AEAD expansion per record.
const sealOverhead = 16 + 12 // tag + nonce salt

func newSealedFS(fs *sfs.FS, gate *compartment.Gate, key []byte) (*sealedFS, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &sealedFS{fs: fs, gate: gate, aead: aead}, nil
}

// nonce binds a record to its file and offset with a write counter salt.
func (s *sealedFS) nonce(name string, off int64, salt []byte) []byte {
	m := hmac.New(sha256.New, salt)
	m.Write([]byte(name))
	var o [8]byte
	binary.BigEndian.PutUint64(o[:], uint64(off))
	m.Write(o[:])
	return m.Sum(nil)[:12]
}

func (s *sealedFS) Create(name string, capacity int64) error {
	// Capacity must absorb per-record expansion; callers size records,
	// we reserve generously.
	return s.gate.Call(func(*compartment.Domain) error {
		return s.fs.Create(name, capacity*2+blockdev.SectorSize)
	})
}

func (s *sealedFS) Write(name string, off int64, p []byte) error {
	var salt [12]byte
	binary.BigEndian.PutUint64(salt[:], uint64(time.Now().UnixNano()))
	nonce := s.nonce(name, off, salt[:])
	sealed := make([]byte, 0, len(p)+sealOverhead)
	sealed = append(sealed, salt[:]...)
	sealed = s.aead.Seal(sealed, nonce, p, []byte(name))
	// Record slot = offset scaled by expansion.
	diskOff := off * 2
	return s.gate.Call(func(*compartment.Domain) error {
		var hdr [4]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(sealed)))
		if err := s.fs.Write(name, diskOff, hdr[:]); err != nil {
			return err
		}
		return s.fs.Write(name, diskOff+4, sealed)
	})
}

// ErrSealed reports a record that failed authentication after the
// filesystem compartment returned it.
var ErrSealed = errors.New("stio: sealed record verification failed")

func (s *sealedFS) Read(name string, off int64, p []byte) (int, error) {
	diskOff := off * 2
	var sealed []byte
	err := s.gate.Call(func(*compartment.Domain) error {
		var hdr [4]byte
		if _, err := s.fs.Read(name, diskOff, hdr[:]); err != nil {
			return err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		if n > uint32(len(p)+sealOverhead+4096) {
			return ErrSealed
		}
		sealed = make([]byte, n)
		if _, err := s.fs.Read(name, diskOff+4, sealed); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	if len(sealed) < 12+s.aead.Overhead() {
		return 0, ErrSealed
	}
	nonce := s.nonce(name, off, sealed[:12])
	pt, err := s.aead.Open(nil, nonce, sealed[12:], []byte(name))
	if err != nil {
		return 0, ErrSealed
	}
	return copy(p, pt), nil
}

func (s *sealedFS) Delete(name string) error {
	return s.gate.Call(func(*compartment.Domain) error { return s.fs.Delete(name) })
}

// --- workload ---

// RunFiles executes a file workload: nFiles files, each written and read
// back in recordSize records, then deleted. Every byte is verified.
func (w *World) RunFiles(nFiles, recordsPerFile, recordSize int) (workload.Result, error) {
	res := workload.Result{}
	start := time.Now()
	buf := make([]byte, recordSize)
	for f := 0; f < nFiles; f++ {
		name := fmt.Sprintf("file-%d", f)
		cap := int64(recordsPerFile*recordSize*4) + blockdev.SectorSize
		if err := w.ops.Create(name, cap); err != nil {
			return res, fmt.Errorf("create %s: %w", name, err)
		}
		for r := 0; r < recordsPerFile; r++ {
			seed := uint64(f*1000 + r)
			rec := workload.Payload(seed, recordSize)
			if err := w.ops.Write(name, int64(r*recordSize), rec); err != nil {
				return res, fmt.Errorf("write %s/%d: %w", name, r, err)
			}
			res.Ops++
			res.Bytes += int64(recordSize)
		}
		for r := 0; r < recordsPerFile; r++ {
			seed := uint64(f*1000 + r)
			n, err := w.ops.Read(name, int64(r*recordSize), buf)
			if err != nil {
				return res, fmt.Errorf("read %s/%d: %w", name, r, err)
			}
			if err := workload.Verify(seed, buf[:n]); err != nil {
				return res, fmt.Errorf("verify %s/%d: %w", name, r, err)
			}
			res.Ops++
			res.Bytes += int64(n)
		}
		if err := w.ops.Delete(name); err != nil {
			return res, fmt.Errorf("delete %s: %w", name, err)
		}
	}
	res.Duration = time.Since(start)
	return res, nil
}
