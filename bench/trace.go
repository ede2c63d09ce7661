package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// spanRec is one span as -trace-out writes it: name, start, end, the
// span that caused it, and the request it belongs to.
type spanRec struct {
	Trace   string `json:"trace"` // which traced run: echo, bulk or file
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Side    string `json:"side,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // -1: none
	Req     uint32 `json:"req"`
	N       int    `json:"n,omitempty"`   // frames, bytes or sectors
	Len     int    `json:"len,omitempty"` // longest frame of a batch
}

// spanLog keeps every traced run's spans in memory until the benchmark
// ends, then writes them out.
type spanLog struct{ recs []spanRec }

func (l *spanLog) addNet(trace string, spans []netSpan) {
	if l == nil {
		return
	}
	for i, s := range spans {
		l.recs = append(l.recs, spanRec{Trace: trace, ID: i, Name: kindNames[s.kind], Side: sideNames[s.side&1],
			StartNs: s.start, EndNs: s.end, Parent: int(s.parent), Req: s.req, N: int(s.n), Len: int(s.maxLen)})
	}
}

func (l *spanLog) addStore(spans []storeSpan) {
	if l == nil {
		return
	}
	for i, s := range spans {
		op := ".read"
		if s.write {
			op = ".write"
		}
		l.recs = append(l.recs, spanRec{Trace: "file", ID: i, Name: seamNames[s.seam] + op,
			StartNs: s.start, EndNs: s.end, Parent: int(s.parent), Req: s.req, N: int(s.sectors)})
	}
}

func (l *spanLog) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range l.recs {
		if err := enc.Encode(&l.recs[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceWorkload adds the per-layer runs for wl to res: the probe-stack
// or storage trace of the workload's shape, with its untraced twin for
// the overhead row, and the micro-drives of the layers it uses. Each
// traced run takes a third of the workload's window. End-to-end metrics are
// never touched here: they come from the untraced run alone.
func traceWorkload(wl *workloadDef, opt runOptions, res *Result, spans *spanLog) {
	add := func(name string, v float64, unit string) { setMetric(res.PerLayer, name, v, unit) }
	window := opt.window
	if window == 0 {
		window = wl.window
	}
	part := window / 3
	count := 0
	if opt.smoke {
		count = 100
	}
	var err error
	switch wl.name {
	case "echo-small":
		err = traceEcho(add, opt.seed, part, count, spans)
	case "gw-echo":
		// What the gateway adds over the plain echo: the same 256 B
		// echo on the single-tenant dual-boundary world, subtracted.
		err = gatewayOverEcho(add, opt, part, res)
	case "bulk-stream":
		err = traceBulk(add, opt.seed, part, opt.smoke, spans)
	case "file-rw":
		err = traceStore(add, opt.seed, part, count*10, spans)
	}
	for _, drive := range microDrives(wl.name) {
		if err == nil {
			err = drive(add, opt.smoke)
		}
	}
	if err != nil {
		res.Error = fmt.Sprintf("trace: %v", err)
		res.Correct = false
	}
}

// traceEcho runs the echo shape untraced, then traced, and prints the
// table whose rows are layers.
func traceEcho(add addMetric, seed int64, d time.Duration, count int, spans *spanLog) error {
	plain, plainCosts, plainOps, err := probeEcho(nil, seed, d, count)
	if err != nil {
		return err
	}
	tr := newNetTracer(1 << 19)
	traced, tracedCosts, tracedOps, err := probeEcho(tr, seed, d, count)
	if err != nil {
		return err
	}
	recorded := tr.recorded()
	b := analyseEcho(recorded)
	spans.addNet("echo", recorded)
	if b.matched == 0 {
		return fmt.Errorf("echo trace: none of %d rounds matched the span chain", b.rounds)
	}

	meanRTT := b.totalNs / float64(b.rtt.n())
	fmt.Printf("-- net trace, echo shape: %d rounds traced, %d matched; untraced rtt p50 %.1f us, traced %.1f us\n",
		b.rounds, b.matched, plain.quantile(0.5)/1e3, traced.quantile(0.5)/1e3)
	fmt.Printf("   %-24s %10s %10s %10s %7s\n", "layer", "p50 us", "p99 us", "mean us", "share")
	var covered float64
	top, topShare := "", 0.0
	for _, l := range echoLayers {
		s := b.layer[l]
		// Means are over all traced rounds so the column closes.
		mean := s.mean() * float64(s.n()) / float64(b.rtt.n())
		covered += mean
		share := 100 * mean / meanRTT
		if share > topShare {
			top, topShare = l, share
		}
		fmt.Printf("   %-24s %10.2f %10.2f %10.2f %6.1f%%\n", l, s.quantile(0.5)/1e3, s.quantile(0.99)/1e3, mean/1e3, share)
		add(l, s.quantile(0.5)/1e3, "us")
	}
	unattributed := b.unattributedNs / float64(b.rtt.n())
	fmt.Printf("   %-24s %10s %10s %10.2f %6.1f%%\n", "unattributed", "", "", unattributed/1e3, 100*unattributed/meanRTT)
	fmt.Printf("   %-24s %10.2f %10.2f %10.2f %6.1f%%   (layers + unattributed = %.2f)\n", "traced round trip",
		b.rtt.quantile(0.5)/1e3, b.rtt.quantile(0.99)/1e3, meanRTT/1e3, 100.0, (covered+unattributed)/1e3)
	fmt.Printf("   the wait is held by %s: %.1f%% of the mean round trip\n", top, topShare)
	for _, l := range []string{"nic.tx_wake", "nic.rx_wake", "netstack.rx_wake"} {
		add(l+"_p99_us", b.layer[l+"_us"].quantile(0.99)/1e3, "us")
	}
	add("trace.unattributed_pct", 100*unattributed/meanRTT, "%")
	add("trace.overhead_pct", 100*(traced.quantile(0.5)-plain.quantile(0.5))/plain.quantile(0.5), "%")

	// Transparency: the interposers must not change what the stack does.
	pm := plainCosts.ModelNanos(defaultParams) / float64(plainOps)
	tm := tracedCosts.ModelNanos(defaultParams) / float64(tracedOps)
	fmt.Printf("   model ns/op untraced %.1f, traced %.1f\n", pm, tm)
	return nil
}

// gatewayOverEcho measures echo-small's round trip for part of a window and
// reports how much the gateway's path adds to it.
func gatewayOverEcho(add addMetric, opt runOptions, d time.Duration, gw *Result) error {
	echo := runWorkload(findWorkload("echo-small"), runOptions{seed: opt.seed, window: d, smoke: opt.smoke})
	if !echo.Correct {
		return fmt.Errorf("echo-small reference: %s", echo.Error)
	}
	add("gateway.over_echo_us", gw.EndToEnd["op_hi_us"].Value-echo.EndToEnd["op_hi_us"].Value, "us")
	return nil
}

// traceBulk runs the bulk shape on a traced probe stack. The path is
// pipelined, so the layers are busy shares of the wall time and counts,
// not a chain.
func traceBulk(add addMetric, seed int64, d time.Duration, smoke bool, spans *spanLog) error {
	tr := newNetTracer(1 << 18)
	p, err := newProbeStack(tr)
	if err != nil {
		return err
	}
	total := int64(bulkTotal)
	if smoke {
		total, d = bulkTotal/8, 0
	}
	st0, drops0 := p.tcpStats()
	frames0 := p.frames.Load()
	bytes, elapsed, err := probeBulk(p, seed, d, total)
	st1, drops1 := p.tcpStats()
	frames := p.frames.Load() - frames0
	p.close()
	if err != nil {
		return err
	}
	spans.addNet("bulk", tr.recorded())

	mb := float64(bytes) / 1e6
	wall := float64(elapsed)
	pct := func(ns int64) float64 { return 100 * float64(ns) / wall }
	var guestNs, hostNs int64
	var sendCalls, sendFrames, popCalls, popFrames, sendFull uint64
	for side := 0; side < 2; side++ {
		for dir := 0; dir < 2; dir++ {
			guestNs += tr.guest[side][dir].busyNs.Load()
			hostNs += tr.host[side][dir].busyNs.Load()
		}
		sendCalls += tr.guest[side][0].calls.Load()
		sendFrames += tr.guest[side][0].frames.Load()
		sendFull += tr.guest[side][0].full.Load()
		popCalls += tr.host[side][0].calls.Load()
		popFrames += tr.host[side][0].frames.Load()
	}
	// ctls work: time in the app's ctls calls not spent in the conn
	// under them — the sender's writes and the receiver's reads.
	ctlsNs := tr.appNs[sideClient][0].Load() - tr.connNs[sideClient][0].Load() +
		tr.appNs[sideServer][1].Load() - tr.connNs[sideServer][1].Load()
	// Transmit-side stack: the sender's conn writes outside guest sends.
	txNs := tr.connNs[sideClient][0].Load() - tr.guest[sideClient][0].busyNs.Load()

	add("ctls.busy_pct", pct(ctlsNs), "%")
	add("netstack.tx_busy_pct", pct(txNs), "%")
	add("safering.guest_busy_pct", pct(guestNs), "%")
	add("safering.host_busy_pct", pct(hostNs), "%")
	add("safering.frames_per_sendbatch", float64(sendFrames)/float64(sendCalls), "count")
	add("safering.frames_per_popbatch", float64(popFrames)/float64(popCalls), "count")
	add("safering.send_full_per_MB", float64(sendFull)/mb, "count")
	add("tcp.retransmits", float64(st1.Retransmits-st0.Retransmits), "count")
	add("tcp.fast_retransmits", float64(st1.FastRetransmits-st0.FastRetransmits), "count")
	add("tcp.segs_out_per_MB", float64(st1.SegsOut-st0.SegsOut)/mb, "count")
	add("netstack.send_drops", float64(drops1-drops0), "count")
	add("simnet.frames_per_MB", float64(frames)/mb, "count")

	fmt.Printf("-- net trace, bulk shape: %.1f MB in %.2f s on the traced probe stack (%.1f MB/s)\n", mb, elapsed.Seconds(), mb/elapsed.Seconds())
	fmt.Printf("   busy shares of wall time: ctls %.1f%%, netstack tx (incl. send-buffer waits) %.1f%%, ring guest calls %.1f%%, ring host calls %.1f%%\n",
		pct(ctlsNs), pct(txNs), pct(guestNs), pct(hostNs))
	return nil
}

// traceStore runs the file-rw shape untraced, then with disk probes, and
// prints the table whose rows are layers.
func traceStore(add addMetric, seed int64, d time.Duration, count int, spans *spanLog) error {
	plain, err := traceFile(nil, seed, d, count)
	if err != nil {
		return err
	}
	t := newStoreTracer(1 << 21)
	b, err := traceFile(t, seed, d, count)
	if err != nil {
		return err
	}
	spans.addStore(t.recorded())

	pooled := func(sb *storeBreakdown) *series {
		all := newSeries(sb.op[0].n() + sb.op[1].n())
		all.v = append(append(all.v, sb.op[0].v...), sb.op[1].v...)
		return all
	}
	plainP50, tracedP50 := pooled(plain).quantile(0.5), pooled(b).quantile(0.5)
	fmt.Printf("-- storage trace, file-rw shape: %d ops traced; untraced op p50 %.1f us, traced %.1f us\n",
		b.ops, plainP50/1e3, tracedP50/1e3)
	fmt.Printf("   %-18s %12s %12s %12s %12s\n", "layer (self time)", "read p50 us", "read mean", "write p50 us", "write mean")
	kinds := [2]string{"read", "write"}
	suffix := [4]string{"_self_us", "_self_us", "_wait_us", "_service_us"}
	var covered [2]float64
	for l, layer := range storeLayers {
		fmt.Printf("   %-18s", layer)
		for w := range kinds {
			sr := b.self[w][l]
			covered[w] += sr.mean()
			fmt.Printf(" %12.2f %12.2f", sr.quantile(0.5)/1e3, sr.mean()/1e3)
			add(layer+"."+kinds[w]+suffix[l], sr.quantile(0.5)/1e3, "us")
		}
		fmt.Println()
	}
	fmt.Printf("   %-18s", "op (sum of layers)")
	var opMean, layerMean float64
	for w := range kinds {
		fmt.Printf(" %12.2f %12.2f", b.op[w].quantile(0.5)/1e3, b.op[w].mean()/1e3)
		opMean += b.op[w].mean() * float64(b.op[w].n())
		layerMean += covered[w] * float64(b.op[w].n())
	}
	fmt.Println()
	if c := b.calls[seamRing]; c > 0 {
		add("blkring.sectors_per_submit", float64(b.sectors[seamRing])/float64(c), "count")
	}
	add("cryptdisk.sectors_per_op", float64(b.sectors[seamRing])/float64(b.ops), "count")
	add("trace.unattributed_pct", 100*(opMean-layerMean)/opMean, "%")
	add("trace.overhead_pct", 100*(tracedP50-plainP50)/plainP50, "%")
	return nil
}
