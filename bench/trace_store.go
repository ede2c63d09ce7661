package main

import (
	"sync/atomic"
	"time"

	"confio/internal/blockdev"
)

// The storage trace times the file-rw stack at its three disk seams —
// above cryptdisk (what sfs calls), above blkring (what cryptdisk
// calls) and behind the backend (what the ring serves from) — with
// blockdev.Disk wrappers. One op is in flight at a time, so a seam's
// calls nest inside the op that caused them:
//
//	op (sfs.Read / sfs.Write)
//	  └ crypt seam call ── sfs self      = op − Σ crypt-seam calls
//	      └ ring seam call ── cryptdisk self = crypt seam − Σ ring-seam calls
//	          └ platter call ── blkring wait  = ring seam − Σ platter calls
//	                             blockdev service = Σ platter calls
//
// The four add up to the op exactly.

const (
	seamCrypt = iota
	seamRing
	seamPlatter
	seamCount3
)

var seamNames = [seamCount3]string{"cryptdisk", "blkring", "blockdev"}

// storeSpan is one disk call at a seam.
type storeSpan struct {
	seam       uint8
	write      bool
	start, end int64
	sectors    int32
	req        uint32
	parent     int32
}

// storeTracer accumulates, per seam, the time and sectors of the op in
// flight. The platter seam runs on the backend goroutine, hence atomics.
type storeTracer struct {
	epoch   time.Time
	ns      [seamCount3]atomic.Int64
	sectors [seamCount3]atomic.Int64
	calls   [seamCount3]atomic.Int64

	spans []storeSpan
	next  atomic.Int64
	req   atomic.Uint32
	// open is the index of the span currently open at each seam, the
	// causing span of whatever the seam below records.
	open [seamCount3]atomic.Int32
}

func newStoreTracer(capacity int) *storeTracer {
	t := &storeTracer{epoch: time.Now(), spans: make([]storeSpan, capacity)}
	for i := range t.open {
		t.open[i].Store(-1)
	}
	return t
}

func (t *storeTracer) now() int64 { return int64(time.Since(t.epoch)) }

// enter opens a span at seam and returns its index (-1 when the buffer
// is full) and start time.
func (t *storeTracer) enter(seam int, write bool, sectors int) (int32, int64) {
	start := t.now()
	i := t.next.Add(1) - 1
	if i >= int64(len(t.spans)) {
		return -1, start
	}
	parent := int32(-1)
	if seam > 0 {
		parent = t.open[seam-1].Load()
	}
	t.spans[i] = storeSpan{seam: uint8(seam), write: write, start: start, sectors: int32(sectors),
		req: t.req.Load(), parent: parent}
	t.open[seam].Store(int32(i))
	return int32(i), start
}

func (t *storeTracer) exit(seam int, idx int32, start int64, sectors int) {
	end := t.now()
	if idx >= 0 {
		t.spans[idx].end = end
	}
	t.ns[seam].Add(end - start)
	t.sectors[seam].Add(int64(sectors))
	t.calls[seam].Add(1)
}

func (t *storeTracer) recorded() []storeSpan {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// diskProbe wraps a plain blockdev.Disk (the MemDisk behind the backend
// is one: it has no batch calls, so neither does its wrapper).
type diskProbe struct {
	in   blockdev.Disk
	t    *storeTracer
	seam int
}

func (d *diskProbe) Sectors() uint64 { return d.in.Sectors() }

func (d *diskProbe) ReadSector(lba uint64, buf []byte) error {
	i, t0 := d.t.enter(d.seam, false, 1)
	err := d.in.ReadSector(lba, buf)
	d.t.exit(d.seam, i, t0, 1)
	return err
}

func (d *diskProbe) WriteSector(lba uint64, data []byte) error {
	i, t0 := d.t.enter(d.seam, true, 1)
	err := d.in.WriteSector(lba, data)
	d.t.exit(d.seam, i, t0, 1)
	return err
}

// batchDiskProbe wraps a blockdev.BatchDisk (cryptdisk and blkring both
// are): blockdev.ReadSectors picks the batch path by type assertion, so
// the wrapper must offer it exactly when the wrapped disk does.
type batchDiskProbe struct {
	diskProbe
	batch blockdev.BatchDisk
}

func (d *batchDiskProbe) ReadSectors(lba uint64, p []byte) error {
	n := len(p) / blockdev.SectorSize
	i, t0 := d.t.enter(d.seam, false, n)
	err := d.batch.ReadSectors(lba, p)
	d.t.exit(d.seam, i, t0, n)
	return err
}

func (d *batchDiskProbe) WriteSectors(lba uint64, p []byte) error {
	n := len(p) / blockdev.SectorSize
	i, t0 := d.t.enter(d.seam, true, n)
	err := d.batch.WriteSectors(lba, p)
	d.t.exit(d.seam, i, t0, n)
	return err
}

// probeDisk returns the wrapper with exactly the optional interface of d.
func probeDisk(d blockdev.Disk, t *storeTracer, seam int) blockdev.Disk {
	base := diskProbe{in: d, t: t, seam: seam}
	if bd, ok := d.(blockdev.BatchDisk); ok {
		return &batchDiskProbe{diskProbe: base, batch: bd}
	}
	return &base
}

func (t *storeTracer) seams() seams {
	return seams{
		crypt:   func(d blockdev.Disk) blockdev.Disk { return probeDisk(d, t, seamCrypt) },
		ring:    func(d blockdev.Disk) blockdev.Disk { return probeDisk(d, t, seamRing) },
		platter: func(d blockdev.Disk) blockdev.Disk { return probeDisk(d, t, seamPlatter) },
	}
}

// storeBreakdown is the analysed storage trace: per-op self times by
// layer, reads and writes apart.
type storeBreakdown struct {
	// self[write][layer]: layer 0 sfs, 1 cryptdisk, 2 blkring wait,
	// 3 blockdev service; ns per op.
	self [2][4]*series
	op   [2]*series
	// sectors and calls at each seam over the whole run.
	sectors, calls [seamCount3]int64
	ops            int64
}

var storeLayers = [4]string{"sfs", "cryptdisk", "blkring", "blockdev"}

// traceFile drives the file-rw shape for d (or count ops) and splits
// every op's time over the layers. A nil tracer drives the untraced
// stack: only the op times are filled in.
func traceFile(t *storeTracer, seed int64, d time.Duration, count int) (*storeBreakdown, error) {
	rec := newRecorder(1 << 20)
	var s seams
	if t == nil {
		t = newStoreTracer(0) // never interposed: reads as zeros
	} else {
		s = t.seams()
	}
	in, err := buildFileOn(seed, rec, s)
	if err != nil {
		return nil, err
	}
	defer in.close()
	b := &storeBreakdown{}
	for w := range b.self {
		b.op[w] = newSeries(1 << 20)
		for l := range b.self[w] {
			b.self[w][l] = newSeries(1 << 20)
		}
	}
	var last [seamCount3]int64
	read := func() (d [seamCount3]int64) {
		for s := range d {
			now := t.ns[s].Load()
			d[s], last[s] = now-last[s], now
		}
		return d
	}
	for i := 0; i < 200; i++ { // warm-up
		in.step()
	}
	read()
	var base [seamCount3][2]int64
	for s := range base {
		base[s] = [2]int64{t.sectors[s].Load(), t.calls[s].Load()}
	}
	for t0 := time.Now(); ; {
		t.req.Add(1)
		nr, nw := in.reads.n(), in.writes.n()
		in.step()
		w, op := 0, 0.0
		switch {
		case in.reads.n() > nr:
			op = in.reads.v[nr]
		case in.writes.n() > nw:
			w, op = 1, in.writes.v[nw]
		default:
			continue // failed op: counted by the recorder
		}
		seam := read()
		b.op[w].add(op)
		b.self[w][0].add(op - float64(seam[seamCrypt]))
		b.self[w][1].add(float64(seam[seamCrypt] - seam[seamRing]))
		b.self[w][2].add(float64(seam[seamRing] - seam[seamPlatter]))
		b.self[w][3].add(float64(seam[seamPlatter]))
		b.ops++
		if count > 0 {
			if int(b.ops) >= count {
				break
			}
		} else if time.Since(t0) >= d {
			break
		}
	}
	for s := range base {
		b.sectors[s] = t.sectors[s].Load() - base[s][0]
		b.calls[s] = t.calls[s].Load() - base[s][1]
	}
	if rec.failed > 0 {
		return b, rec.firstErr
	}
	return b, nil
}
