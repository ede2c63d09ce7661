package confio_test

import (
	"fmt"
	"testing"

	"confio/internal/compartment"
	"confio/internal/core"
	"confio/internal/platform"
	"confio/internal/stio"
)

// The benchmarks in this package are the micro-benchmarks behind the
// paper's performance rows that confbench (./bench) does not carry: each
// exists once, and `make bench` runs every one of them into the committed
// BENCH.txt (EXPERIMENTS.md indexes the rows). Wall-clock ns/op measures
// the simulation; the "model-ns" metrics weight the counted boundary
// events (TEE crossings, copies, crypto, notifications, page ops) with
// the platform calibration — that is the number whose *shape* should
// match the paper's testbed, and the one the analysis quotes.

// --- Figure 5: the performance and TCB axes, every design point ---

// benchEcho times size-byte echo round trips over one design's world.
func benchEcho(b *testing.B, id core.DesignID, size int) {
	w, err := core.NewWorld(id)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	// One warm-up exchange establishes connections and ARP.
	if _, err := w.RunEcho(1, size); err != nil {
		b.Fatal(err)
	}
	before := w.Costs()
	b.ResetTimer()
	if _, err := w.RunEcho(b.N, size); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportModel(b, w.Costs().Sub(before))
}

// benchBulk times a stream of 32 KiB chunks over one design's world.
func benchBulk(b *testing.B, id core.DesignID) {
	w, err := core.NewWorld(id)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	const chunk = 32 << 10
	before := w.Costs()
	b.SetBytes(chunk)
	b.ResetTimer()
	if _, err := w.RunBulk(int64(b.N)*chunk, chunk); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	reportModel(b, w.Costs().Sub(before))
}

// BenchmarkFig5 runs a 256 B echo and a bulk stream over every design
// point. Each echo row also carries the design's core TCB in lines
// (tcb.Measure through core.TCBOf), the axis core.TestTCBProfilesMatchFigure5
// buckets into Figure 5's letters.
func BenchmarkFig5(b *testing.B) {
	for _, id := range core.Designs() {
		coreTCB, _ := core.TCBOf(id)
		b.Run("echo/"+string(id), func(b *testing.B) {
			benchEcho(b, id, 256)
			b.ReportMetric(float64(coreTCB.Total()), "core-tcb-loc")
		})
	}
	for _, id := range core.Designs() {
		b.Run("bulk/"+string(id), func(b *testing.B) { benchBulk(b, id) })
	}
}

// BenchmarkSizeSweep locates the crossovers between the designs the
// paper reasons about as the request grows: crossing-bound designs stay
// flat, byte-bound ones climb. The 256 B column is BenchmarkFig5's echo.
func BenchmarkSizeSweep(b *testing.B) {
	for _, id := range []core.DesignID{core.HostSocket, core.L2SafeRing, core.Tunnel, core.DualBoundary} {
		for _, size := range []int{64, 1024, 4096, 15000} {
			b.Run(fmt.Sprintf("%s/%d", id, size), func(b *testing.B) { benchEcho(b, id, size) })
		}
	}
}

// BenchmarkMixWorkload runs the middlebox-flavoured size mix through the
// dual-boundary design (the intro's motivating traffic shape).
func BenchmarkMixWorkload_DualBoundary(b *testing.B) {
	w, err := core.NewWorld(core.DualBoundary)
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	before := w.Costs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := min(b.N-done, 64)
		if _, err := w.RunMix(n); err != nil {
			b.Fatal(err)
		}
		done += n
	}
	b.StopTimer()
	reportModel(b, w.Costs().Sub(before))
}

// --- §3.3 storage designs: one row per design point ---

// BenchmarkStorage writes and reads back 512 B records, in files of up
// to 16 records, over each storage design; each row carries the design's
// core TCB in lines like BenchmarkFig5's echo rows.
func BenchmarkStorage(b *testing.B) {
	for _, id := range stio.Designs() {
		coreTCB, _ := stio.TCBOf(id)
		b.Run(string(id), func(b *testing.B) {
			w, err := stio.NewWorld(id)
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			const recordSize = 512
			before := w.Costs()
			b.SetBytes(2 * recordSize)
			b.ResetTimer()
			for done := 0; done < b.N; {
				recs := min(b.N-done, 16)
				if _, err := w.RunFiles(1, recs, recordSize); err != nil {
					b.Fatal(err)
				}
				done += recs
			}
			b.StopTimer()
			reportModel(b, w.Costs().Sub(before))
			b.ReportMetric(float64(coreTCB.Total()), "core-tcb-loc")
		})
	}
}

// --- §3.2 "zero-copy send on the confidential side" ---
//
// The single-distrust relationship lets the app compose messages directly
// in the I/O domain's arena (trusted-component-allocates: one copy total).
// The alternative — a mutually-distrusting gate that copies app buffers
// inward — pays a second copy. Both are metered.

func benchL5Send(b *testing.B, trustedAlloc bool) {
	var m platform.Meter
	app := compartment.NewDomain("app", &m)
	io := compartment.NewDomain("io", &m)
	g := compartment.NewGate(app, io, &m)
	payload := make([]byte, 1400)
	sink := func(p []byte) error { return nil }

	// Both arms hold their buffers across sends, as compartment.Conn
	// holds its transmit buffer: the allocation is paid once, outside
	// the measured loop.
	ioBuf := g.AllocTx(len(payload))
	defer ioBuf.Free()
	appBuf := app.Alloc(len(payload))
	defer appBuf.Free()

	before := m.Snapshot()
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if trustedAlloc {
			// App writes straight into the I/O arena: one copy.
			if err := g.FillTx(ioBuf, payload); err != nil {
				b.Fatal(err)
			}
			if err := g.SubmitTx(ioBuf, sink); err != nil {
				b.Fatal(err)
			}
		} else {
			// Dual-distrust gate: app buffer copied inward, then submitted.
			data, err := appBuf.Access(app)
			if err != nil {
				b.Fatal(err)
			}
			copy(data, payload)
			m.Copy(len(payload)) // app -> private staging
			if err := g.FillTx(ioBuf, data); err != nil {
				b.Fatal(err)
			}
			m.Copy(len(payload)) // staging -> io arena
			if err := g.SubmitTx(ioBuf, sink); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	reportModel(b, m.Snapshot().Sub(before))
}

func BenchmarkAblation_L5Send(b *testing.B) {
	b.Run("trusted-alloc", func(b *testing.B) { benchL5Send(b, true) })
	b.Run("copy-at-gate", func(b *testing.B) { benchL5Send(b, false) })
}
