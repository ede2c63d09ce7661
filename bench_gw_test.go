package confio_test

import (
	"bytes"
	"io"
	"sync"
	"testing"

	"confio/internal/gateway"
)

// --- Multi-tenant gateway: fairness under a flooding neighbor ---
//
// The gateway's robustness claim is not only that a hostile tenant gets
// contained (the chaos and attack suites prove that) but that a merely
// *greedy* one cannot starve its neighbors: per-tenant compartments,
// per-tenant metering and the shared multi-queue ring should keep a
// well-behaved tenant's latency and throughput stable while a neighbor
// pushes as hard as it can. Rows:
//
//   - fair: three tenants, two measured, nobody misbehaving — the
//     baseline round-trip cost through hello routing, the per-tenant
//     ctls channel, the gate-crossing relay and back.
//   - under-flood: identical, except tenant 1 continuously streams
//     4 KiB echoes from a separate flow for the whole measured run.
//
// The figure of merit is the delta between the two rows — MB/s and
// p99-us of the measured tenants should move only modestly, and
// p99-spread (worst measured-tenant p99 over best) should stay near 1
// (EXPERIMENTS.md).

func benchGWEcho(b *testing.B, flood bool) {
	n, err := gateway.NewNode(gateway.DefaultNodeConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()

	dial := func(id gateway.TenantID) io.ReadWriteCloser {
		c, err := n.DialTenant(id)
		if err != nil {
			b.Fatalf("tenant %v dial: %v", id, err)
		}
		return c
	}
	c2, c3 := dial(2), dial(3)
	defer c2.Close()
	defer c3.Close()

	echo := func(c io.ReadWriteCloser, payload, resp []byte) error {
		if _, err := c.Write(payload); err != nil {
			return err
		}
		_, err := io.ReadFull(c, resp)
		return err
	}

	var stop chan struct{}
	var wg sync.WaitGroup
	if flood {
		cf := dial(1)
		defer cf.Close()
		stop = make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := bytes.Repeat([]byte{0xF1}, 4096)
			resp := make([]byte, len(payload))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := echo(cf, payload, resp); err != nil {
					return
				}
			}
		}()
	}

	payload := bytes.Repeat([]byte{0x42}, 256)
	resp := make([]byte, len(payload))
	// Two measured tenants, both directions, per iteration.
	b.SetBytes(int64(2 * 2 * len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := echo(c2, payload, resp); err != nil {
			b.Fatal(err)
		}
		if err := echo(c3, payload, resp); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if flood {
		close(stop)
		wg.Wait()
	}

	for _, id := range []gateway.TenantID{2, 3} {
		if c := n.Tb.Tenant(uint64(id)); c.Drops != 0 || c.Evictions != 0 {
			b.Fatalf("measured tenant %v charged under load: %s", id, c)
		}
	}
	l2, l3 := n.Tb.TenantLatency(2), n.Tb.TenantLatency(3)
	worst, best := l2.P99, l3.P99
	if worst < best {
		worst, best = best, worst
	}
	b.ReportMetric(float64(worst)/1e3, "p99-us")
	if best > 0 {
		b.ReportMetric(float64(worst)/float64(best), "p99-spread")
	}
	if flood {
		b.ReportMetric(float64(n.Tb.Tenant(1).Frames), "flood-frames")
	}
}

func BenchmarkGW(b *testing.B) {
	b.Run("fair", func(b *testing.B) { benchGWEcho(b, false) })
	b.Run("under-flood", func(b *testing.B) { benchGWEcho(b, true) })
}
