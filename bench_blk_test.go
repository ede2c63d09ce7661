package confio_test

import (
	"fmt"
	"testing"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/platform"
)

// --- storage-ring amortization: batch x queues over blkring ---

// blkDevice is the batch surface shared by the single- and multi-queue
// storage rings.
type blkDevice interface {
	WriteSectors(lba uint64, p []byte) error
	ReadSectors(lba uint64, p []byte) error
}

// benchBlk drives write+read spans of `batch` sectors through a blkring
// device with live in-process backends and reports the per-sector meter
// readings: index publications (the quantity batching amortizes), checks
// (one per validated completion load; waiting and wake-ups are
// unmetered), and modelled time.
func benchBlk(b *testing.B, queues, batch int) {
	const slots = 16
	const sectors = 4096
	var m platform.Meter
	disk := blockdev.NewMemDisk(sectors)
	var dev blkDevice
	var stops []func()
	if queues == 1 {
		ep, err := blkring.New(slots, sectors, &m)
		if err != nil {
			b.Fatal(err)
		}
		be := blkring.NewBackend(ep.Shared(), disk)
		be.Start()
		stops = append(stops, be.Stop)
		dev = ep
	} else {
		mq, err := blkring.NewMulti(queues, slots, sectors, &m)
		if err != nil {
			b.Fatal(err)
		}
		for _, sh := range mq.Shareds() {
			be := blkring.NewBackend(sh, disk)
			be.Start()
			stops = append(stops, be.Stop)
		}
		dev = mq
	}
	defer func() {
		for _, stop := range stops {
			stop()
		}
	}()

	span := batch * blockdev.SectorSize
	wr := make([]byte, span)
	for i := range wr {
		wr[i] = byte(i * 13)
	}
	rd := make([]byte, span)
	spans := sectors/batch - 1
	b.SetBytes(int64(2 * span))
	before := m.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lba := uint64(i%spans) * uint64(batch)
		if err := dev.WriteSectors(lba, wr); err != nil {
			b.Fatal(err)
		}
		if err := dev.ReadSectors(lba, rd); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	d := m.Snapshot().Sub(before)
	moved := float64(2 * b.N * batch)
	b.ReportMetric(float64(d.IndexPublishes)/moved, "pub/sector")
	b.ReportMetric(float64(d.Checks)/moved, "checks/sector")
	b.ReportMetric(d.ModelNanos(platform.DefaultCostParams())/moved, "model-ns/sector")
}

// BenchmarkBlk: one producer-index store covers a whole batched span, so
// pub/sector falls as 1/batch; 16-sector stripes keep each span on one
// queue, so the multi-queue rows match the single-queue ones.
func BenchmarkBlk(b *testing.B) {
	for _, queues := range []int{1, 4} {
		for _, batch := range []int{1, 16} {
			b.Run(fmt.Sprintf("q%d/batch%d", queues, batch), func(b *testing.B) { benchBlk(b, queues, batch) })
		}
	}
}
