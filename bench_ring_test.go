package confio_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"confio/internal/netvsc"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/virtio"
)

// --- §3.2 the safe ring: one batched cycle, three sweeps ---
//
// ringCase.bench drives every queue of a device through the full cycle —
// guest SendBatch, host PopBatch, host PushBatch, guest RecvBatch — one
// worker per queue, 1400 B frames. The scalar calls are batch-of-one
// shims, so batch 1 is the single-frame datapath. Every row reports the
// same columns:
//
//   - notif/frame, suppressed/frame, pub/frame: doorbells rung, doorbells
//     elided by event-idx (guest side only: the guest meter is the trusted
//     observer), and index stores, per frame moved;
//   - model-ns/frame: the counted events weighted with DefaultCostParams;
//   - model-MB/s: total bytes over the slowest queue's modelled time. The
//     queues share no datapath state, so a device's modelled time is the
//     per-queue maximum, not the sum. Wall MB/s scales with queues only
//     when the runtime has a core per worker.
//   - p50-us, p99-us, p999-us: wall time of one cycle, every queue's
//     histogram merged.

// notifyMode is how the two consumers ask to be woken.
type notifyMode int

const (
	polling    notifyMode = iota // no doorbells
	doorbell                     // a doorbell per publish
	armed                        // event-idx, each consumer re-arms after every drain
	suppressed                   // event-idx, each consumer withdrew its wake once
)

var notifyNames = [...]string{"polling", "doorbell", "event-idx-armed", "event-idx-suppressed"}

// ringCase is one row: a device shape and its notification discipline.
type ringCase struct {
	mode          safering.DataMode
	queues, batch int
	notify        notifyMode
}

// modeConfig is DefaultConfig placed in mode. The slab modes keep 64 B
// slots: there a slot holds only the descriptor.
func modeConfig(mode safering.DataMode) safering.DeviceConfig {
	cfg := safering.DefaultConfig()
	cfg.Mode = mode
	if mode != safering.Inline {
		cfg.SlotSize = 64
	}
	return cfg
}

func (c ringCase) bench(b *testing.B) {
	cfg := modeConfig(c.mode)
	cfg.Notify = c.notify != polling
	cfg.EventIdx = c.notify >= armed
	bank := platform.NewMeterBank(c.queues)
	m, err := safering.NewMulti(cfg, c.queues, bank)
	if err != nil {
		b.Fatal(err)
	}
	hp := safering.NewMultiHostPort(m.SharedQueues())
	if c.notify == suppressed {
		// Sustained load: both consumers declare themselves awake once.
		// The thresholds go stale as the indexes advance, so this single
		// call elides every doorbell for the rest of the run.
		for q := 0; q < c.queues; q++ {
			hp.Queue(q).SuppressTXNotify()
			m.Queue(q).SuppressRXNotify()
		}
	}

	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i)
	}
	// Per-queue scratch, allocated up front so the timed region is the
	// zero-allocation steady state.
	type scratch struct {
		frames, bufs [][]byte
		lens         []int
		out          []*safering.RxFrame
	}
	per := make([]scratch, c.queues)
	for q := range per {
		s := &per[q]
		s.frames, s.bufs = make([][]byte, c.batch), make([][]byte, c.batch)
		for i := range s.frames {
			s.frames[i] = payload
			s.bufs[i] = make([]byte, cfg.FrameCap())
		}
		s.lens, s.out = make([]int, c.batch), make([]*safering.RxFrame, c.batch)
	}

	before, beforeQ := m.Costs(), m.QueueCosts()
	b.SetBytes(int64(2 * c.batch * c.queues * len(payload)))
	b.ResetTimer()
	var wg sync.WaitGroup
	for q := 0; q < c.queues; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			ep, h, s, meter := m.Queue(q), hp.Queue(q), &per[q], bank.Queue(q)
			for i := 0; i < b.N; i++ {
				start := time.Now()
				if n, err := ep.SendBatch(s.frames); err != nil || n != c.batch {
					b.Errorf("queue %d SendBatch = %d, %v", q, n, err)
					return
				}
				if n, err := h.PopBatch(s.bufs, s.lens); err != nil || n != c.batch {
					b.Errorf("queue %d PopBatch = %d, %v", q, n, err)
					return
				}
				if c.notify == armed {
					h.ArmTXNotify()
				}
				if n, err := h.PushBatch(s.frames); err != nil || n != c.batch {
					b.Errorf("queue %d PushBatch = %d, %v", q, n, err)
					return
				}
				n, err := ep.RecvBatch(s.out)
				if err != nil || n != c.batch {
					b.Errorf("queue %d RecvBatch = %d, %v", q, n, err)
					return
				}
				for _, f := range s.out[:n] {
					f.Release()
				}
				if c.notify == armed {
					ep.ArmRXNotify()
				}
				meter.RecordLatency(time.Since(start))
			}
		}(q)
	}
	wg.Wait()
	b.StopTimer()

	params := platform.DefaultCostParams()
	d := m.Costs().Sub(before)
	frames := float64(2 * b.N * c.batch * c.queues)
	b.ReportMetric(float64(d.Notifications)/frames, "notif/frame")
	b.ReportMetric(float64(d.NotifsSuppressed)/frames, "suppressed/frame")
	b.ReportMetric(float64(d.IndexPublishes)/frames, "pub/frame")
	b.ReportMetric(d.ModelNanos(params)/frames, "model-ns/frame")
	crit := 0.0
	for q, after := range m.QueueCosts() {
		crit = max(crit, after.Sub(beforeQ[q]).ModelNanos(params))
	}
	if crit > 0 {
		b.ReportMetric(frames*float64(len(payload))/(crit/1e9)/1e6, "model-MB/s")
	}
	lat := bank.LatencyPercentiles()
	b.ReportMetric(float64(lat.P50)/1e3, "p50-us")
	b.ReportMetric(float64(lat.P99)/1e3, "p99-us")
	b.ReportMetric(float64(lat.P999)/1e3, "p999-us")
}

// BenchmarkBatch: one index store and one doorbell per batch per
// direction, so notif/frame and pub/frame fall as 1/batch.
func BenchmarkBatch(b *testing.B) {
	for _, mode := range []safering.DataMode{safering.Inline, safering.SharedArea, safering.Indirect} {
		for _, batch := range []int{1, 4, 16, 64} {
			c := ringCase{mode: mode, queues: 1, batch: batch, notify: doorbell}
			b.Run(fmt.Sprintf("%v/batch%d", mode, batch), c.bench)
		}
	}
}

// BenchmarkMQ: per-frame cost is flat in the queue count, so model-MB/s
// scales linearly with queues.
func BenchmarkMQ(b *testing.B) {
	for _, mode := range []safering.DataMode{safering.Inline, safering.SharedArea} {
		for _, queues := range []int{1, 2, 4, 8} {
			for _, batch := range []int{16, 64} {
				c := ringCase{mode: mode, queues: queues, batch: batch}
				b.Run(fmt.Sprintf("%v/q%d/batch%d", mode, queues, batch), c.bench)
			}
		}
	}
}

// BenchmarkNotify: at batch 1 batching cannot amortise the doorbell, so
// event-idx suppression must remove it (DESIGN.md §11): the acceptance
// bar is >= 4x fewer notif/frame from doorbell to event-idx-suppressed.
func BenchmarkNotify(b *testing.B) {
	for _, n := range []notifyMode{doorbell, armed, suppressed} {
		c := ringCase{mode: safering.Inline, queues: 1, batch: 1, notify: n}
		b.Run(notifyNames[n], c.bench)
	}
}

// reportModel reports the modelled cost of d per benchmark iteration.
func reportModel(b *testing.B, d platform.Costs) {
	b.ReportMetric(d.ModelNanos(platform.DefaultCostParams())/float64(b.N), "model-ns/op")
}

// benchSend times the transmit half alone: guest Send, host Pop. With
// doorbells on, the host takes each one.
func benchSend(b *testing.B, cfg safering.DeviceConfig, size int) {
	var m platform.Meter
	ep, err := safering.New(cfg, &m)
	if err != nil {
		b.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	payload := make([]byte, size)
	buf := make([]byte, cfg.FrameCap())
	before := m.Snapshot()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ep.Send(payload); err != nil {
			b.Fatal(err)
		}
		if cfg.Notify {
			ep.Shared().TXBell.TryWait()
		}
		if _, err := hp.Pop(buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportModel(b, m.Snapshot().Sub(before))
}

// BenchmarkDataPositioning: the three data placements of §3.2 at 64 B
// and at 1500 B.
func BenchmarkDataPositioning(b *testing.B) {
	for _, mode := range []safering.DataMode{safering.Inline, safering.SharedArea, safering.Indirect} {
		cfg := modeConfig(mode)
		for _, size := range []int{64, 1500} {
			b.Run(fmt.Sprintf("%v/%d", mode, size), func(b *testing.B) { benchSend(b, cfg, size) })
		}
	}
}

// BenchmarkAblation_SafeRing: principle 3 — notifications "do not
// contribute to performance under polling scenarios"; the doorbell is
// the cost.
func BenchmarkAblation_SafeRing(b *testing.B) {
	for _, n := range []notifyMode{polling, doorbell} {
		cfg := safering.DefaultConfig()
		cfg.Notify = n == doorbell
		b.Run(notifyNames[n], func(b *testing.B) { benchSend(b, cfg, 1400) })
	}
}

// BenchmarkAblation_RingGeometry: the slot count is a capacity knob, not
// a safety one.
func BenchmarkAblation_RingGeometry(b *testing.B) {
	for _, slots := range []int{16, 64, 256, 1024} {
		cfg := safering.DefaultConfig()
		cfg.Slots = slots
		b.Run(fmt.Sprintf("slots%d", slots), func(b *testing.B) { benchSend(b, cfg, 1400) })
	}
}

// --- §3.2 revocation vs copy on receive ---

func benchRxPolicy(b *testing.B, rx safering.RXPolicy, size int) {
	cfg := modeConfig(safering.SharedArea)
	cfg.RX = rx
	var m platform.Meter
	ep, err := safering.New(cfg, &m)
	if err != nil {
		b.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	payload := make([]byte, size)
	before := m.Snapshot()
	b.SetBytes(int64(size))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := hp.Push(payload); err != nil {
			b.Fatal(err)
		}
		f, err := ep.Recv()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	b.StopTimer()
	reportModel(b, m.Snapshot().Sub(before))
}

func BenchmarkRevocationVsCopy(b *testing.B) {
	for _, rx := range []safering.RXPolicy{safering.CopyOut, safering.Revoke} {
		for _, size := range []int{64, 1500} {
			b.Run(fmt.Sprintf("%v/%d", rx, size), func(b *testing.B) { benchRxPolicy(b, rx, size) })
		}
	}
}

// BenchmarkRevocationCrossover sweeps the modelled revocation cost to
// locate where un-sharing beats copying (the "when does this become
// faster than copies" question of §3.2).
func BenchmarkRevocationCrossover(b *testing.B) {
	for _, revokeNs := range []float64{500, 1000, 2500, 5000} {
		for _, size := range []int{256, 1500, 4000} {
			name := fmt.Sprintf("revoke%.0fns/size%d", revokeNs, size)
			b.Run(name, func(b *testing.B) {
				params := platform.DefaultCostParams()
				params.RevokeNs = revokeNs
				copyCost := platform.Costs{BytesCopied: uint64(size)}.ModelNanos(params)
				revokeCost := platform.Costs{PagesRevoked: 1, PagesShared: 1}.ModelNanos(params)
				b.ReportMetric(copyCost, "copy-ns")
				b.ReportMetric(revokeCost, "revoke-ns")
				for i := 0; i < b.N; i++ {
					_ = copyCost - revokeCost
				}
			})
		}
	}
}

// --- §2.5: what each retrofit costs (transport-level, no stack) ---

// legacyGuest and legacyHost are the two halves of a legacy transport,
// virtio or netvsc; F is its receive frame.
type legacyGuest[F interface{ Release() }] interface {
	Send([]byte) error
	Recv() (F, error)
}

type legacyHost interface {
	Pop([]byte) (int, error)
	Push([]byte) error
}

// benchLegacy times one 1400 B TX+RX round through a bare transport.
func benchLegacy[F interface{ Release() }](b *testing.B, g legacyGuest[F], h legacyHost, m *platform.Meter) {
	buf := make([]byte, 2048)
	payload := make([]byte, 1400)
	before := m.Snapshot()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := g.Send(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := h.Pop(buf); err != nil {
			b.Fatal(err)
		}
		if err := h.Push(payload); err != nil {
			b.Fatal(err)
		}
		f, err := g.Recv()
		if err != nil {
			b.Fatal(err)
		}
		f.Release()
	}
	b.StopTimer()
	reportModel(b, m.Snapshot().Sub(before))
}

func BenchmarkHardeningCost(b *testing.B) {
	for _, v := range []struct {
		name string
		h    virtio.Hardening
	}{
		{"none", virtio.NoHardening()},
		{"checks", virtio.Hardening{Checks: true}},
		{"copies", virtio.Hardening{Copies: true}},
		{"mem-init", virtio.Hardening{MemInit: true}},
		{"restrict", virtio.Hardening{RestrictFeatures: true}},
		{"full", virtio.FullHardening()},
	} {
		b.Run("virtio/"+v.name, func(b *testing.B) {
			cfg := virtio.DefaultConfig()
			cfg.Hardening = v.h
			var m platform.Meter
			d, dv, err := virtio.NewPair(cfg, &m)
			if err != nil {
				b.Fatal(err)
			}
			benchLegacy[*virtio.RxFrame](b, d, dv, &m)
		})
	}
	for _, v := range []struct {
		name string
		h    netvsc.Hardening
	}{
		{"none", netvsc.Hardening{}},
		{"copies", netvsc.Hardening{Copies: true}},
		{"full", netvsc.FullHardening()},
	} {
		b.Run("netvsc/"+v.name, func(b *testing.B) {
			cfg := netvsc.DefaultConfig()
			cfg.Hardening = v.h
			var m platform.Meter
			d, host, err := netvsc.New(cfg, &m)
			if err != nil {
				b.Fatal(err)
			}
			benchLegacy[*netvsc.RxFrame](b, d, host, &m)
		})
	}
}
