package confio_test

import (
	"testing"
	"time"

	"confio/internal/platform"
	"confio/internal/safering"
)

// --- Adaptive notification suppression: batch-1 sustained load ---
//
// The batched datapath amortizes doorbells by 1/batch, but a latency-
// sensitive workload runs at batch 1 and the amortization argument
// evaporates. These benchmarks measure what event-idx suppression buys
// exactly there: a bidirectional single-frame round trip, doorbells on,
// with the meter counting crossings and recording wall-clock round-trip
// latency into the HDR histogram. Rows:
//
//   - Doorbell: the always-ring baseline (~1 notif/frame at batch 1).
//   - EventIdxArmed: event-idx on, both consumers re-arm after every
//     drain — the interrupt-driven idle shape, one wake per crossing.
//   - EventIdxSuppressed: sustained load; each consumer withdrew its
//     wake threshold once, so every subsequent doorbell is elided
//     (notif/frame ~0, suppressed/frame ~1).
//
// `make bench-notify` lands the stream in BENCH_notify.json; the
// acceptance bar is >=4x fewer notifications per frame at batch 1
// between Doorbell and EventIdxSuppressed (EXPERIMENTS.md).

type notifyMode int

const (
	modeDoorbell notifyMode = iota
	modeArmed
	modeSuppressed
)

func benchNotify(b *testing.B, mode notifyMode) {
	cfg := safering.DefaultConfig()
	cfg.Notify = true
	cfg.EventIdx = mode != modeDoorbell
	var m platform.Meter
	ep, err := safering.New(cfg, &m)
	if err != nil {
		b.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	if mode == modeSuppressed {
		// Sustained load: both consumers declare themselves awake once.
		// The thresholds go stale as the indexes advance, so this single
		// call elides every doorbell for the rest of the run.
		hp.SuppressTXNotify()
		ep.SuppressRXNotify()
	}
	payload := make([]byte, 1400)
	for i := range payload {
		payload[i] = byte(i)
	}
	buf := make([]byte, cfg.FrameCap())

	before := m.Snapshot()
	b.SetBytes(int64(2 * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := time.Now()
		if err := ep.Send(payload); err != nil {
			b.Fatal(err)
		}
		if _, err := hp.Pop(buf); err != nil {
			b.Fatal(err)
		}
		if mode == modeArmed {
			hp.ArmTXNotify()
		}
		if err := hp.Push(payload); err != nil {
			b.Fatal(err)
		}
		rx, err := ep.Recv()
		if err != nil {
			b.Fatal(err)
		}
		rx.Release()
		if mode == modeArmed {
			ep.ArmRXNotify()
		}
		m.RecordLatency(time.Since(start))
	}
	b.StopTimer()
	d := m.Snapshot().Sub(before)
	frames := float64(2 * b.N)
	b.ReportMetric(float64(d.Notifications)/frames, "notif/frame")
	b.ReportMetric(float64(d.NotifsSuppressed)/frames, "suppressed/frame")
	lat := m.LatencyPercentiles()
	b.ReportMetric(float64(lat.P50)/1e3, "p50-us")
	b.ReportMetric(float64(lat.P99)/1e3, "p99-us")
	b.ReportMetric(float64(lat.P999)/1e3, "p999-us")
}

func BenchmarkNotify_Doorbell(b *testing.B)           { benchNotify(b, modeDoorbell) }
func BenchmarkNotify_EventIdxArmed(b *testing.B)      { benchNotify(b, modeArmed) }
func BenchmarkNotify_EventIdxSuppressed(b *testing.B) { benchNotify(b, modeSuppressed) }
