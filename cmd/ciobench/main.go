// Command ciobench reproduces Figure 5 and the performance tables: it
// runs the echo and bulk workloads over every confidential I/O design
// and prints, per design, the measured throughput and latency, the
// modelled per-operation cost (boundary events weighted with the
// platform calibration), the TCB class, and the observability class —
// the three axes of the paper's design-space figure.
//
// Usage:
//
//	ciobench                 # Figure 5 table, default workload sizes
//	ciobench -echo 200 -size 256 -bulk 4
//	ciobench -design dual-boundary -v
//	ciobench -batch          # batched-datapath amortization table
//	ciobench -queues         # multi-queue scaling table (queues x batch)
//	ciobench -lat            # batch-1 notification modes with tail latency
//	ciobench -tenants        # multi-tenant gateway fairness under flood
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"confio/internal/core"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/stio"
)

func main() {
	echoN := flag.Int("echo", 200, "echo round trips per design")
	echoSize := flag.Int("size", 256, "echo request size in bytes")
	bulkMB := flag.Int("bulk", 4, "bulk transfer size in MiB")
	only := flag.String("design", "", "run a single design (comma-separated ids)")
	verbose := flag.Bool("v", false, "print raw cost counters")
	storage := flag.Bool("storage", false, "run the §3.3 storage designs instead")
	sweep := flag.Bool("sweep", false, "sweep request sizes to locate design crossovers")
	batch := flag.Bool("batch", false, "sweep batch sizes over the safe ring's batched datapath")
	queues := flag.Bool("queues", false, "sweep queue counts over the multi-queue ring datapath")
	blk := flag.Bool("blk", false, "sweep batch x queues over the storage ring")
	lat := flag.Bool("lat", false, "batch-1 notification-mode table with round-trip tail latency")
	tenants := flag.Bool("tenants", false, "multi-tenant gateway fairness table (one tenant floods)")
	flag.Parse()

	if *storage {
		runStorage(*verbose)
		return
	}
	if *sweep {
		runSweep()
		return
	}
	if *batch {
		runBatch()
		return
	}
	if *queues {
		runMQ()
		return
	}
	if *blk {
		runBlk()
		return
	}
	if *lat {
		runLat()
		return
	}
	if *tenants {
		runTenants()
		return
	}

	designs := core.Designs()
	if *only != "" {
		designs = nil
		for _, s := range strings.Split(*only, ",") {
			designs = append(designs, core.DesignID(strings.TrimSpace(s)))
		}
	}

	params := platform.DefaultCostParams()
	fmt.Println("== Figure 5: confidentiality (TCB, observability) vs performance ==")
	fmt.Printf("workloads: echo %d x %dB round trips; bulk %d MiB stream\n", *echoN, *echoSize, *bulkMB)
	fmt.Printf("model calibration: TEE crossing %.0fns, gate %.0fns, copy %.2fns/B, crypto %.2fns/B\n\n",
		params.TEECrossNs, params.GateCrossNs, params.CopyByteNs, params.CryptoNs)

	fmt.Printf("%-20s %-7s %-5s %9s %9s %9s %11s %12s\n",
		"design", "coreTCB", "obs", "p50(us)", "p99(us)", "Gbit/s", "model/op", "model(bulk)")

	for _, id := range designs {
		if err := runDesign(id, *echoN, *echoSize, int64(*bulkMB)<<20, params, *verbose); err != nil {
			fmt.Fprintf(os.Stderr, "ciobench: %s: %v\n", id, err)
			os.Exit(1)
		}
	}

	fmt.Println("\nexpected shape (paper): host-socket = smallest TCB, worst observability &")
	fmt.Println("latency; L2 designs = fast but stack-sized TCB; tunnel = lowest observability,")
	fmt.Println("largest TCB, crypto-bound; dual-boundary = small core TCB, network-equivalent")
	fmt.Println("observability, performance within a gate-crossing of the raw safe ring.")
}

// runSweep prints modelled cost per echo round trip as request size
// grows, for the four designs whose relative order the paper reasons
// about. Crossing-dominated designs flatten out; byte-cost-dominated
// designs grow linearly — the crossover structure of the design space.
func runSweep() {
	params := platform.DefaultCostParams()
	sizes := []int{64, 256, 1024, 4096, 15000}
	designs := []core.DesignID{core.HostSocket, core.L2SafeRing, core.Tunnel, core.DualBoundary}

	fmt.Println("== request-size sweep: model µs per echo round trip ==")
	fmt.Printf("%-10s", "size")
	for _, id := range designs {
		fmt.Printf(" %16s", id)
	}
	fmt.Println()
	for _, size := range sizes {
		fmt.Printf("%-10d", size)
		for _, id := range designs {
			w, err := core.NewWorld(id)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ciobench: %v\n", err)
				os.Exit(1)
			}
			const n = 50
			before := w.Costs()
			if _, err := w.RunEcho(n, size); err != nil {
				fmt.Fprintf(os.Stderr, "ciobench: %s/%d: %v\n", id, size, err)
				os.Exit(1)
			}
			model := w.Costs().Sub(before).ModelNanos(params) / n / 1000
			fmt.Printf(" %15.1f", model)
			w.Close()
		}
		fmt.Println()
	}
	fmt.Println("\nreading: host-socket is crossing-bound (flat, high floor); the safe ring and")
	fmt.Println("dual boundary are byte-bound (low floor, shallow slope); the tunnel adds a")
	fmt.Println("constant padding+crypto tax that fades as requests approach the pad size.")
}

// runBatch prints the amortization table for the batched ring datapath:
// for each data-positioning mode and batch size, the doorbell
// notifications and index publications per frame, plus modelled time per
// frame, over a doorbell-enabled bidirectional round trip. The batch-1
// rows coincide with the single-frame datapath; the paper's stateless
// interface needs no new message types or negotiation to earn the drop.
func runBatch() {
	fmt.Println("== batched datapath: publication amortization per frame ==")
	fmt.Printf("%-14s %-7s %13s %11s %15s\n", "mode", "batch", "notif/frame", "pub/frame", "model-ns/frame")
	for _, mode := range []safering.DataMode{safering.Inline, safering.SharedArea, safering.Indirect} {
		for _, batch := range []int{1, 4, 16, 64} {
			notif, pub, model, err := batchRun(mode, batch)
			if err != nil {
				fmt.Fprintf(os.Stderr, "ciobench: %v/batch%d: %v\n", mode, batch, err)
				os.Exit(1)
			}
			fmt.Printf("%-14s %-7d %13.4f %11.4f %15.1f\n", mode, batch, notif, pub, model)
		}
	}
	fmt.Println("\nreading: one index store + one doorbell per batch per direction, so both")
	fmt.Println("columns fall as 1/batch; at batch 16 the ring issues 16x fewer notifications")
	fmt.Println("and publications per frame than the single-frame datapath.")
}

// batchRun moves a fixed frame count through one safe-ring instance with
// batched calls in both directions and returns per-frame meter readings.
func batchRun(mode safering.DataMode, batch int) (notif, pub, modelNs float64, err error) {
	cfg := safering.DefaultConfig()
	cfg.Mode = mode
	cfg.Notify = true
	if mode != safering.Inline {
		cfg.SlotSize = 64
	}
	var m platform.Meter
	ep, err := safering.New(cfg, &m)
	if err != nil {
		return 0, 0, 0, err
	}
	hp := safering.NewHostPort(ep.Shared())
	payload := make([]byte, 1400)
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = payload
	}
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, cfg.FrameCap())
	}
	lens := make([]int, batch)
	out := make([]*safering.RxFrame, batch)

	const targetFrames = 4096
	rounds := targetFrames / batch
	before := m.Snapshot()
	for r := 0; r < rounds; r++ {
		if n, berr := ep.SendBatch(frames); berr != nil || n != batch {
			return 0, 0, 0, fmt.Errorf("SendBatch = %d, %v", n, berr)
		}
		if n, berr := hp.PopBatch(bufs, lens); berr != nil || n != batch {
			return 0, 0, 0, fmt.Errorf("PopBatch = %d, %v", n, berr)
		}
		if n, berr := hp.PushBatch(frames); berr != nil || n != batch {
			return 0, 0, 0, fmt.Errorf("PushBatch = %d, %v", n, berr)
		}
		n, berr := ep.RecvBatch(out)
		if berr != nil || n != batch {
			return 0, 0, 0, fmt.Errorf("RecvBatch = %d, %v", n, berr)
		}
		for j := 0; j < n; j++ {
			out[j].Release()
		}
	}
	d := m.Snapshot().Sub(before)
	moved := float64(2 * rounds * batch)
	return float64(d.Notifications) / moved, float64(d.IndexPublishes) / moved,
		d.ModelNanos(platform.DefaultCostParams()) / moved, nil
}

// runLat prints the batch-1 notification-mode table: for the always-ring
// doorbell baseline and the event-idx modes (re-armed every drain,
// suppressed under sustained load), the doorbell crossings and suppressions per frame plus wall-clock
// round-trip p50/p99/p999 from the meter's latency histogram. This is
// the single-frame latency-sensitive regime where batching cannot help;
// suppression is what removes the per-frame doorbell there.
func runLat() {
	fmt.Println("== batch-1 notification modes: crossings and round-trip tail latency ==")
	fmt.Printf("%-22s %13s %17s %9s %9s %9s\n",
		"mode", "notif/frame", "suppressed/frame", "p50(us)", "p99(us)", "p999(us)")
	modes := []struct {
		name                  string
		eventIdx, supp, rearm bool
	}{
		{"doorbell", false, false, false},
		{"event-idx-armed", true, false, true},
		{"event-idx-suppressed", true, true, false},
	}
	for _, md := range modes {
		notif, supp, lat, err := latRun(md.eventIdx, md.supp, md.rearm)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciobench: %s: %v\n", md.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-22s %13.4f %17.4f %9.2f %9.2f %9.2f\n", md.name, notif, supp,
			float64(lat.P50)/1e3, float64(lat.P99)/1e3, float64(lat.P999)/1e3)
	}
	fmt.Println("\nreading: the doorbell baseline pays one notification per frame at batch 1;")
	fmt.Println("a single suppression call elides all of them under sustained load (the stale")
	fmt.Println("threshold never re-crosses), and the tail tightens with the doorbell gone.")
}

// latRun drives batch-1 bidirectional round trips through one safe-ring
// instance and returns per-frame notification readings plus the latency
// percentile summary.
func latRun(eventIdx, suppress, rearm bool) (notif, supp float64, lat platform.LatencySummary, err error) {
	cfg := safering.DefaultConfig()
	cfg.Notify = true
	cfg.EventIdx = eventIdx
	var m platform.Meter
	ep, err := safering.New(cfg, &m)
	if err != nil {
		return 0, 0, lat, err
	}
	hp := safering.NewHostPort(ep.Shared())
	if suppress {
		hp.SuppressTXNotify()
		ep.SuppressRXNotify()
	}
	payload := make([]byte, 1400)
	buf := make([]byte, cfg.FrameCap())
	const rounds = 4096
	before := m.Snapshot()
	for r := 0; r < rounds; r++ {
		start := time.Now()
		if serr := ep.Send(payload); serr != nil {
			return 0, 0, lat, serr
		}
		if _, perr := hp.Pop(buf); perr != nil {
			return 0, 0, lat, perr
		}
		if rearm {
			hp.ArmTXNotify()
		}
		if perr := hp.Push(payload); perr != nil {
			return 0, 0, lat, perr
		}
		rx, rerr := ep.Recv()
		if rerr != nil {
			return 0, 0, lat, rerr
		}
		rx.Release()
		if rearm {
			ep.ArmRXNotify()
		}
		m.RecordLatency(time.Since(start))
	}
	d := m.Snapshot().Sub(before)
	moved := float64(2 * rounds)
	return float64(d.Notifications) / moved, float64(d.NotifsSuppressed) / moved,
		m.LatencyPercentiles(), nil
}

// runMQ prints the multi-queue scaling table: for each queue count and
// batch size, the per-frame index publications and modelled time, plus
// the device-level modelled throughput. The queues of a multi-queue
// device proceed concurrently (independent ring pairs, no shared lock),
// so the device's modelled time is the slowest queue's critical path —
// that is the column that scales with the queue count.
func runMQ() {
	fmt.Println("== multi-queue ring datapath: scaling table ==")
	fmt.Printf("%-14s %-7s %-7s %11s %15s %13s\n",
		"mode", "queues", "batch", "pub/frame", "model-ns/frame", "model-MB/s")
	for _, mode := range []safering.DataMode{safering.Inline, safering.SharedArea} {
		for _, queues := range []int{1, 2, 4, 8} {
			for _, batch := range []int{16, 64} {
				pub, model, mbps, err := mqRun(mode, queues, batch)
				if err != nil {
					fmt.Fprintf(os.Stderr, "ciobench: %v/q%d/batch%d: %v\n", mode, queues, batch, err)
					os.Exit(1)
				}
				fmt.Printf("%-14s %-7d %-7d %11.4f %15.1f %13.0f\n",
					mode, queues, batch, pub, model, mbps)
			}
		}
	}
	fmt.Println("\nreading: per-frame cost is flat in the queue count (each queue is an")
	fmt.Println("independent ring pair), so the device's modelled throughput — total bytes")
	fmt.Println("over the slowest queue's critical path — scales linearly with queues.")
}

// mqRun moves a fixed frame count through every queue of an N-queue
// device and returns per-frame meter readings plus the device-level
// modelled throughput (bytes over the slowest queue's modelled nanos).
func mqRun(mode safering.DataMode, queues, batch int) (pub, modelNs, modelMBps float64, err error) {
	cfg := safering.DefaultConfig()
	cfg.Mode = mode
	if mode != safering.Inline {
		cfg.SlotSize = 64
	}
	bank := platform.NewMeterBank(queues)
	m, err := safering.NewMulti(cfg, queues, bank)
	if err != nil {
		return 0, 0, 0, err
	}
	hp := safering.NewMultiHostPort(m.SharedQueues())
	payload := make([]byte, 1400)
	frames := make([][]byte, batch)
	for i := range frames {
		frames[i] = payload
	}
	bufs := make([][]byte, batch)
	for i := range bufs {
		bufs[i] = make([]byte, cfg.FrameCap())
	}
	lens := make([]int, batch)
	out := make([]*safering.RxFrame, batch)

	const targetFramesPerQueue = 4096
	rounds := targetFramesPerQueue / batch
	before := m.Costs()
	beforeQ := m.QueueCosts()
	for r := 0; r < rounds; r++ {
		for q := 0; q < queues; q++ {
			ep, h := m.Queue(q), hp.Queue(q)
			if n, berr := ep.SendBatch(frames); berr != nil || n != batch {
				return 0, 0, 0, fmt.Errorf("queue %d SendBatch = %d, %v", q, n, berr)
			}
			if n, berr := h.PopBatch(bufs, lens); berr != nil || n != batch {
				return 0, 0, 0, fmt.Errorf("queue %d PopBatch = %d, %v", q, n, berr)
			}
			if n, berr := h.PushBatch(frames); berr != nil || n != batch {
				return 0, 0, 0, fmt.Errorf("queue %d PushBatch = %d, %v", q, n, berr)
			}
			n, berr := ep.RecvBatch(out)
			if berr != nil || n != batch {
				return 0, 0, 0, fmt.Errorf("queue %d RecvBatch = %d, %v", q, n, berr)
			}
			for j := 0; j < n; j++ {
				out[j].Release()
			}
		}
	}
	params := platform.DefaultCostParams()
	d := m.Costs().Sub(before)
	moved := float64(2 * rounds * batch * queues)
	crit := 0.0
	for q, after := range m.QueueCosts() {
		if ns := after.Sub(beforeQ[q]).ModelNanos(params); ns > crit {
			crit = ns
		}
	}
	totalBytes := moved * float64(len(payload))
	if crit > 0 {
		modelMBps = totalBytes / (crit / 1e9) / 1e6
	}
	return float64(d.IndexPublishes) / moved, d.ModelNanos(params) / moved, modelMBps, nil
}

func runStorage(verbose bool) {
	params := platform.DefaultCostParams()
	fmt.Println("== §3.3 storage designs: file workload (8 files x 16 records x 512B) ==")
	fmt.Printf("%-14s %-7s %-5s %10s %12s\n", "design", "coreTCB", "obs", "ops/s", "model/op")
	for _, id := range stio.Designs() {
		w, err := stio.NewWorld(id)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciobench: %s: %v\n", id, err)
			os.Exit(1)
		}
		res, err := w.RunFiles(8, 16, 512)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ciobench: %s: %v\n", id, err)
			os.Exit(1)
		}
		model := w.Costs().ModelNanos(params) / float64(res.Ops) / 1000
		coreTCB, _ := stio.TCBOf(id)
		fmt.Printf("%-14s %-7s %-5s %10.0f %10.1fus\n",
			id, coreTCB.Class(), w.Observability().Class(), res.OpsPerSec(), model)
		if verbose {
			fmt.Printf("    costs: %s\n    obs: %s\n", w.Costs(), w.Observability())
		}
		w.Close()
	}
	fmt.Println("\nexpected shape: host-files = tiny TCB but names+contents visible and a TEE")
	fmt.Println("crossing per call; block-ring = pattern-only observability, stack-sized TCB;")
	fmt.Println("dual-storage = small core TCB, pattern-only observability, gate-crossing cost.")
}

func runDesign(id core.DesignID, echoN, echoSize int, bulkBytes int64, params platform.CostParams, verbose bool) error {
	w, err := core.NewWorld(id)
	if err != nil {
		return err
	}
	defer w.Close()

	before := w.Costs()
	echo, err := w.RunEcho(echoN, echoSize)
	if err != nil {
		return fmt.Errorf("echo: %w", err)
	}
	echoCosts := w.Costs().Sub(before)
	modelPerOp := echoCosts.ModelNanos(params) / float64(echoN) / 1000 // µs

	before = w.Costs()
	bulk, err := w.RunBulk(bulkBytes, 32<<10)
	if err != nil {
		return fmt.Errorf("bulk: %w", err)
	}
	bulkCosts := w.Costs().Sub(before)
	modelBulkMs := bulkCosts.ModelNanos(params) / 1e6

	coreTCB, _ := core.TCBOf(id)
	obs := w.Observability()

	fmt.Printf("%-20s %-7s %-5s %9.0f %9.0f %9.2f %9.1fus %10.1fms\n",
		id, coreTCB.Class(), obs.Class(),
		float64(echo.Percentile(50).Microseconds()),
		float64(echo.Percentile(99).Microseconds()),
		bulk.Gbps(), modelPerOp, modelBulkMs)

	if verbose {
		fmt.Printf("    echo costs: %s\n", echoCosts)
		fmt.Printf("    bulk costs: %s\n", bulkCosts)
		fmt.Printf("    observability: %s\n", obs)
		_, tee := core.TCBOf(id)
		fmt.Printf("    tcb: core=%d LoC, tee-total=%d LoC\n", coreTCB.Total(), tee.Total())
	}
	return nil
}
