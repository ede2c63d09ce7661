package main

import (
	"errors"
	"io"
	"runtime"
	"sync"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/compartment"
	"confio/internal/cryptdisk"
	"confio/internal/ctls"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/sfs"
)

// Micro-drives are fixed-count loops straight into one layer's public
// functions, well under a second each. They give the per-layer figures
// no end-to-end run can resolve (the ring is under 0.1% of an echo) and
// the allocation counts the ROADMAP sets targets for.

// measure runs fn n times and returns ns and mallocs per call.
func measure(n int, fn func() error) (nsPer, allocsPer float64, err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(); err != nil {
			return 0, 0, err
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n), nil
}

// scale shrinks the loop counts for -smoke.
func scale(n int, smoke bool) int {
	if smoke {
		return max(n/50, 8)
	}
	return n
}

type addMetric func(name string, v float64, unit string)

// microSafering: batches of 16 frames guest→host→guest.
func microSafering(add addMetric, smoke bool) error {
	cfg := safering.DefaultConfig()
	ep, err := safering.New(cfg, nil)
	if err != nil {
		return err
	}
	hp := safering.NewHostPort(ep.Shared())
	const batch = 16
	frames := make([][]byte, batch)
	bufs := make([][]byte, batch)
	for i := range frames {
		frames[i] = make([]byte, ringFrame)
		bufs[i] = make([]byte, cfg.FrameCap())
	}
	lens := make([]int, batch)
	rx := make([]*safering.RxFrame, batch)
	ns, allocs, err := measure(scale(20000, smoke), func() error {
		if n, err := ep.SendBatch(frames); err != nil || n != batch {
			return errors.Join(err, errors.New("micro safering: short SendBatch"))
		}
		n, err := hp.PopBatch(bufs, lens)
		if err != nil || n != batch {
			return errors.Join(err, errors.New("micro safering: short PopBatch"))
		}
		if n, err := hp.PushBatch(frames); err != nil || n != batch {
			return errors.Join(err, errors.New("micro safering: short PushBatch"))
		}
		n, err = ep.RecvBatch(rx)
		for _, f := range rx[:n] {
			f.Release()
		}
		if err != nil || n != batch {
			return errors.Join(err, errors.New("micro safering: short RecvBatch"))
		}
		return nil
	})
	if err != nil {
		return err
	}
	add("safering.batch16_frame_ns", ns/(2*batch), "ns")
	add("safering.allocs_per_frame", allocs/(2*batch), "count")
	return nil
}

// memPipe is one direction of an in-memory byte stream: writes never
// block, reads block until bytes arrive.
type memPipe struct {
	mu   sync.Mutex
	cond *sync.Cond
	buf  []byte
	off  int
}

func newMemPipe() *memPipe {
	p := &memPipe{}
	p.cond = sync.NewCond(&p.mu)
	return p
}

func (p *memPipe) Write(b []byte) (int, error) {
	p.mu.Lock()
	if p.off == len(p.buf) {
		p.buf, p.off = p.buf[:0], 0
	}
	p.buf = append(p.buf, b...)
	p.mu.Unlock()
	p.cond.Signal()
	return len(b), nil
}

func (p *memPipe) Read(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.off == len(p.buf) {
		p.cond.Wait()
	}
	n := copy(b, p.buf[p.off:])
	p.off += n
	return n, nil
}

// duplex joins two pipes into one end of a connection.
type duplex struct {
	io.Reader
	io.Writer
}

// microCtls: one record sealed, carried over an in-memory pipe, opened.
func microCtls(add addMetric, smoke bool) error {
	a2b, b2a := newMemPipe(), newMemPipe()
	psk := []byte("confbench-micro-psk")
	type hs struct {
		c   *ctls.Conn
		err error
	}
	srvCh := make(chan hs, 1)
	go func() {
		c, err := ctls.Server(duplex{a2b, b2a}, psk, nil)
		srvCh <- hs{c, err}
	}()
	cli, err := ctls.Client(duplex{b2a, a2b}, psk, nil)
	srv := <-srvCh
	if err != nil || srv.err != nil {
		return errors.Join(err, srv.err)
	}
	record := func(size, n int) (float64, float64, error) {
		msg := make([]byte, size)
		got := make([]byte, size)
		return measure(n, func() error {
			if _, err := cli.Write(msg); err != nil {
				return err
			}
			_, err := io.ReadFull(srv.c, got)
			return err
		})
	}
	ns, allocs, err := record(echoSize, scale(100000, smoke))
	if err != nil {
		return err
	}
	add("ctls.record256_ns", ns, "ns")
	add("ctls.allocs_per_record", allocs, "count")
	if ns, _, err = record(ctls.MaxPlaintext, scale(10000, smoke)); err != nil {
		return err
	}
	add("ctls.record16k_ns", ns, "ns")
	return nil
}

// microGate: one empty call through the compartment gate.
func microGate(add addMetric, smoke bool) error {
	var m platform.Meter
	g := compartment.NewGate(compartment.NewDomain("app", &m), compartment.NewDomain("io", &m), &m)
	ns, _, err := measure(scale(1000000, smoke), func() error {
		return g.Call(func(*compartment.Domain) error { return nil })
	})
	if err != nil {
		return err
	}
	add("compartment.gate_call_ns", ns, "ns")
	return nil
}

// microCryptdisk: single sectors straight over a MemDisk.
func microCryptdisk(add addMetric, smoke bool) error {
	const sectors = 1024
	cd, _, err := cryptdisk.Format(blockdev.NewMemDisk(sectors), sectors, []byte("confbench-micro"), nil)
	if err != nil {
		return err
	}
	buf := make([]byte, blockdev.SectorSize)
	lba := uint64(0)
	n := scale(10000, smoke)
	wns, wallocs, err := measure(n, func() error {
		lba = (lba + 1) % sectors
		return cd.WriteSector(lba, buf)
	})
	if err != nil {
		return err
	}
	rns, rallocs, err := measure(n, func() error {
		lba = (lba + 1) % sectors
		return cd.ReadSector(lba, buf)
	})
	if err != nil {
		return err
	}
	add("cryptdisk.write_sector_ns", wns, "ns")
	add("cryptdisk.read_sector_ns", rns, "ns")
	add("cryptdisk.allocs_per_sector", (wallocs+rallocs)/2, "count")
	return nil
}

// microBlkring: write+read spans of 1 and 16 sectors through the ring
// with a live backend over a MemDisk.
func microBlkring(add addMetric, smoke bool) error {
	const sectors = 4096
	ep, err := blkring.New(16, sectors, nil)
	if err != nil {
		return err
	}
	be := blkring.NewBackend(ep.Shared(), blockdev.NewMemDisk(sectors))
	be.Start()
	defer be.Stop()
	span := func(batch, n int) (float64, float64, error) {
		buf := make([]byte, batch*blockdev.SectorSize)
		spans := uint64(sectors/batch - 1)
		i := uint64(0)
		return measure(n, func() error {
			lba := (i % spans) * uint64(batch)
			i++
			if err := ep.WriteSectors(lba, buf); err != nil {
				return err
			}
			return ep.ReadSectors(lba, buf)
		})
	}
	ns, _, err := span(1, scale(10000, smoke))
	if err != nil {
		return err
	}
	add("blkring.sector_b1_ns", ns/2, "ns")
	ns, allocs, err := span(16, scale(2000, smoke))
	if err != nil {
		return err
	}
	add("blkring.sector_b16_ns", ns/32, "ns")
	add("blkring.allocs_per_span_b16", allocs/2, "count")
	return nil
}

// microSFS: 4 KiB reads and writes of one file straight over a MemDisk.
func microSFS(add addMetric, smoke bool) error {
	d := blockdev.NewMemDisk(1024)
	if err := sfs.Mkfs(d, 64); err != nil {
		return err
	}
	fs, err := sfs.Mount(d)
	if err != nil {
		return err
	}
	const size = 256 << 10
	if err := fs.Create("f", size); err != nil {
		return err
	}
	buf := make([]byte, fileOp)
	if err := fs.Write("f", 0, make([]byte, size)); err != nil {
		return err
	}
	off := int64(0)
	n := scale(100000, smoke)
	wns, _, err := measure(n, func() error {
		off = (off + fileOp) % size
		return fs.Write("f", off, buf)
	})
	if err != nil {
		return err
	}
	rns, _, err := measure(n, func() error {
		off = (off + fileOp) % size
		_, err := fs.Read("f", off, buf)
		return err
	})
	if err != nil {
		return err
	}
	add("sfs.write4k_ns", wns, "ns")
	add("sfs.read4k_ns", rns, "ns")
	return nil
}

// microDrives lists which drives describe which workload's layers.
func microDrives(workload string) []func(addMetric, bool) error {
	switch workload {
	case "ring-frame":
		return []func(addMetric, bool) error{microSafering}
	case "file-rw":
		return []func(addMetric, bool) error{microCryptdisk, microBlkring, microSFS}
	default:
		return []func(addMetric, bool) error{microSafering, microCtls, microGate}
	}
}
