package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"confio/internal/blockdev"
	"confio/internal/cryptdisk"
	"confio/internal/nic"
	"confio/internal/safering"
)

func smokeRun(t *testing.T, name string, seed int64) *Result {
	t.Helper()
	wl := findWorkload(name)
	if wl == nil {
		t.Fatalf("no workload %q", name)
	}
	return runWorkload(wl, runOptions{seed: seed, smoke: true})
}

// TestSmokeEveryWorkload is the tier-1 hook: every workload builds, runs
// its count-bounded window with verification on, and reports every
// end-to-end metric as a finite, non-zero number.
func TestSmokeEveryWorkload(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res := smokeRun(t, wl.name, 1)
			if !res.Correct {
				t.Fatalf("%s: attempted %d failed %d: %s", wl.name, res.Attempted, res.Failed, res.Error)
			}
			if res.Attempted < wl.smokeOps {
				t.Fatalf("attempted %d ops, want at least %d", res.Attempted, wl.smokeOps)
			}
			for _, m := range endToEndSpec {
				v, ok := res.EndToEnd[m.Name]
				if !ok || v.Value == 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v (present %v), want a finite non-zero number", m.Name, v.Value, ok)
				}
				if v.Unit != m.Unit {
					t.Errorf("%s unit %q, want %q", m.Name, v.Unit, m.Unit)
				}
			}
		})
	}
}

// TestInterposersKeepOptionalInterfaces: netstack, the pump and
// blockdev.ReadSectors pick their path by type assertion, so a wrapper
// must offer exactly what it wraps.
func TestInterposersKeepOptionalInterfaces(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := newNetTracer(16)

	rawGuest := ep.NIC()
	guest := traceGuest(rawGuest, tr, sideClient)
	_, rawBatch := rawGuest.(nic.BatchGuest)
	_, batch := guest.(nic.BatchGuest)
	_, rawMulti := rawGuest.(nic.MultiGuest)
	_, multi := guest.(nic.MultiGuest)
	if batch != rawBatch || multi != rawMulti {
		t.Errorf("guest wrapper: BatchGuest %v (raw %v), MultiGuest %v (raw %v)", batch, rawBatch, multi, rawMulti)
	}

	rawHost := safering.NewHostPort(ep.Shared()).NIC()
	host := traceHost(rawHost, tr, sideClient)
	_, rawBH := rawHost.(nic.BatchHost)
	_, bh := host.(nic.BatchHost)
	_, rawNH := rawHost.(nic.NotifyHost)
	_, nh := host.(nic.NotifyHost)
	if bh != rawBH || nh != rawNH {
		t.Errorf("host wrapper: BatchHost %v (raw %v), NotifyHost %v (raw %v)", bh, rawBH, nh, rawNH)
	}

	st := newStoreTracer(16)
	mem := blockdev.NewMemDisk(64)
	if _, ok := probeDisk(mem, st, seamPlatter).(blockdev.BatchDisk); ok {
		t.Error("probe over MemDisk offers BatchDisk; MemDisk does not")
	}
	cd, _, err := cryptdisk.Format(mem, 64, []byte("k"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := probeDisk(cd, st, seamCrypt).(blockdev.BatchDisk); !ok {
		t.Error("probe over cryptdisk lost BatchDisk")
	}
}

// TestTracingIsTransparent: the traced and the untraced probe stack do
// the same work per op. The counters that follow the bytes moved agree
// within 1%. Checks and IndexPublishes also count every poll of an idle
// ring, so they follow how long the loops waited, which differs between
// any two runs by a tenth; they get a band wide enough for that and
// narrow enough to catch a wrapper that pushed netstack or the pump off
// its batch path.
func TestTracingIsTransparent(t *testing.T) {
	const ops = 250
	_, plain, n0, err := probeEcho(nil, 3, 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	tr := newNetTracer(1 << 16)
	_, traced, n1, err := probeEcho(tr, 3, 0, ops)
	if err != nil {
		t.Fatal(err)
	}
	if n0 != ops || n1 != ops {
		t.Fatalf("ops %d and %d, want %d", n0, n1, ops)
	}
	pv, tv := reflect.ValueOf(plain), reflect.ValueOf(traced)
	for i := 0; i < pv.NumField(); i++ {
		name := pv.Type().Field(i).Name
		band := 0.01
		if name == "Checks" || name == "IndexPublishes" {
			band = 0.25
		}
		a, b := float64(pv.Field(i).Uint()), float64(tv.Field(i).Uint())
		if math.Abs(a-b) > band*math.Max(a, b) {
			t.Errorf("%s: untraced %v, traced %v per %d ops: more than %.0f%% apart", name, a, b, ops, 100*band)
		}
	}
	if len(tr.recorded()) == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestEchoTraceCloses: on a traced echo run nearly every round matches
// the span chain, and the layers plus the unattributed remainder add up
// to the traced round trips exactly.
func TestEchoTraceCloses(t *testing.T) {
	tr := newNetTracer(1 << 16)
	if _, _, _, err := probeEcho(tr, 5, 0, 120); err != nil {
		t.Fatal(err)
	}
	spans := tr.recorded()
	b := analyseEcho(spans)
	if b.rounds != 120 || b.matched < b.rounds*9/10 {
		t.Fatalf("matched %d of %d rounds", b.matched, b.rounds)
	}
	var covered float64
	for _, l := range echoLayers {
		for _, v := range b.layer[l].v {
			covered += v
		}
	}
	if diff := math.Abs(covered + b.unattributedNs - b.totalNs); diff > 1 {
		t.Errorf("layers %.0f + unattributed %.0f != round trips %.0f ns", covered, b.unattributedNs, b.totalNs)
	}
	if pct := 100 * b.unattributedNs / b.totalNs; pct >= 10 {
		t.Errorf("unattributed %.1f%%, want < 10%%", pct)
	}
	// Every matched chain links its spans: a data-bearing host.pop is
	// caused by the guest.send before it.
	linked := 0
	for _, s := range spans {
		if s.kind == spHostPop && s.parent >= 0 && spans[s.parent].kind == spGuestSend {
			linked++
		}
	}
	if linked < b.matched {
		t.Errorf("%d host.pop spans carry a guest.send parent, want at least %d", linked, b.matched)
	}
}

// TestStoreTraceCloses: the four storage layers add up to each op.
func TestStoreTraceCloses(t *testing.T) {
	st := newStoreTracer(1 << 14)
	b, err := traceFile(st, 2, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	for w := range b.op {
		for i, op := range b.op[w].v {
			var sum float64
			for l := range b.self[w] {
				if v := b.self[w][l].v[i]; v < 0 {
					t.Fatalf("negative self time %v (write=%d layer %s)", v, w, storeLayers[l])
				} else {
					sum += v
				}
			}
			if math.Abs(sum-op) > 1 {
				t.Fatalf("layers sum to %.0f ns, op took %.0f ns", sum, op)
			}
		}
	}
	if b.op[0].n() == 0 || b.op[1].n() == 0 {
		t.Fatalf("reads %d writes %d: want both", b.op[0].n(), b.op[1].n())
	}
	// Platter spans are caused by the ring call that was open.
	for _, s := range st.recorded() {
		if s.seam == seamPlatter && (s.parent < 0 || st.spans[s.parent].seam != seamRing) {
			t.Fatalf("platter span with parent %d", s.parent)
		}
	}
}

// TestCorruptReplyIsReported flips one byte of every echo reply: the run
// must count failures and come back incorrect — not crash, not pass.
func TestCorruptReplyIsReported(t *testing.T) {
	wl := *findWorkload("echo-small")
	wl.build = func(env buildEnv) (instance, error) {
		in, err := buildEcho(env)
		if err == nil {
			in.(*echoInst).ec.corrupt = func(p []byte) { p[len(p)/2] ^= 0x01 }
		}
		return in, err
	}
	res := runWorkload(&wl, runOptions{seed: 1, smoke: true})
	if res.Correct || res.Failed == 0 || res.Error == "" {
		t.Fatalf("corrupted replies went unreported: correct=%v failed=%d error=%q", res.Correct, res.Failed, res.Error)
	}
}

// TestCorruptDiskIsReported puts blockdev.CorruptingDisk under the file
// stack. cryptdisk refuses the corrupted sectors, so ops fail; the run
// must report them.
func TestCorruptDiskIsReported(t *testing.T) {
	wl := *findWorkload("file-rw")
	wl.build = func(env buildEnv) (instance, error) {
		// Set-up makes ~1100 platter reads; the first corrupted read
		// falls in the measured ops.
		return buildFileOn(env.seed, env.rec, seams{platter: func(d blockdev.Disk) blockdev.Disk {
			return &blockdev.CorruptingDisk{Disk: d, Every: 1500}
		}})
	}
	res := runWorkload(&wl, runOptions{seed: 1, smoke: true})
	if res.Correct || res.Failed == 0 || res.Error == "" {
		t.Fatalf("corrupted sectors went unreported: correct=%v failed=%d error=%q", res.Correct, res.Failed, res.Error)
	}
	if res.Failed >= res.Attempted {
		t.Fatalf("every op failed (%d of %d): corruption should hit one read in 1500", res.Failed, res.Attempted)
	}
}

// TestSeedDeterminism: no timers drive ring-frame or file-rw, so one
// seed gives the identical op sequence and identical counted costs;
// another seed gives another sequence.
func TestSeedDeterminism(t *testing.T) {
	for _, name := range []string{"ring-frame", "file-rw"} {
		a, b := smokeRun(t, name, 7), smokeRun(t, name, 7)
		if !a.Correct || !b.Correct {
			t.Fatalf("%s: %s / %s", name, a.Error, b.Error)
		}
		if a.Attempted != b.Attempted || a.OpDigest != b.OpDigest {
			t.Errorf("%s: ops %d/%d digest %s/%s differ between runs of one seed", name, a.Attempted, b.Attempted, a.OpDigest, b.OpDigest)
		}
		if x, y := a.EndToEnd["model_ns_per_op"].Value, b.EndToEnd["model_ns_per_op"].Value; x != y {
			t.Errorf("%s: model_ns_per_op %v vs %v", name, x, y)
		}
		for metric, v := range a.PerLayer {
			w := b.PerLayer[metric]
			switch {
			case len(metric) > 9 && metric[:9] == "platform.":
				if v.Value != w.Value {
					t.Errorf("%s: %s %v vs %v", name, metric, v.Value, w.Value)
				}
			case metric == "process.allocs_per_op":
				if math.Abs(v.Value-w.Value) > 0.01*math.Max(v.Value, w.Value)+0.05 {
					t.Errorf("%s: allocs_per_op %v vs %v", name, v.Value, w.Value)
				}
			}
		}
	}
	a, c := smokeRun(t, "file-rw", 7), smokeRun(t, "file-rw", 8)
	if a.OpDigest == "" || a.OpDigest == c.OpDigest {
		t.Errorf("file-rw: seeds 7 and 8 gave the same op sequence (%s)", a.OpDigest)
	}
}

// TestTraceSmoke runs the -trace additions at smoke size: the per-layer
// metrics a workload's trace promises are all there.
func TestTraceSmoke(t *testing.T) {
	want := map[string][]string{
		"echo-small":  {"ctls.seal_us", "nic.tx_wake_us", "netstack.rx_wake_p99_us", "trace.unattributed_pct", "trace.overhead_pct", "ctls.record256_ns", "compartment.gate_call_ns", "safering.batch16_frame_ns"},
		"bulk-stream": {"ctls.busy_pct", "safering.frames_per_sendbatch", "tcp.segs_out_per_MB", "simnet.frames_per_MB"},
		"file-rw":     {"sfs.read_self_us", "cryptdisk.write_self_us", "blkring.read_wait_us", "blockdev.write_service_us", "blkring.sectors_per_submit", "blkring.allocs_per_span_b16", "sfs.read4k_ns", "cryptdisk.read_sector_ns"},
	}
	log := &spanLog{}
	for name, metrics := range want {
		opt := runOptions{seed: 1, smoke: true}
		res := smokeRun(t, name, 1)
		traceWorkload(findWorkload(name), opt, res, log)
		if !res.Correct {
			t.Fatalf("%s: %s", name, res.Error)
		}
		for _, m := range metrics {
			if _, ok := res.PerLayer[m]; !ok {
				t.Errorf("%s: per-layer metric %s missing", name, m)
			}
		}
		for m := range res.PerLayer {
			found := false
			for _, s := range perLayerSpec {
				found = found || s.Name == m
			}
			if !found {
				t.Errorf("%s: per-layer metric %s is not in perLayerSpec", name, m)
			}
		}
	}
	out := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := log.writeFile(out); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 || len(log.recs) == 0 {
		t.Fatalf("span file: %v, %d spans", err, len(log.recs))
	}
}

// TestSpecMatchesBenchmarkJSON holds BENCHMARK.json to what the program
// emits and to the limits of the benchmark contract.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: %q / %q differs from the program's %q", i, w.Name, w.Why, workloads[i].name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	same := func(kind string, got, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit || got[i].Better != want[i].Better {
				t.Errorf("%s[%d]: %+v differs from the program's %+v", kind, i, got[i], want[i])
			}
			if bounded && (got[i].Bound <= 0 || got[i].Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", got[i].Name, got[i].Bound)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEndSpec, true)
	same("per_layer", spec.PerLayer, perLayerSpec, false)
	if last := spec.EndToEnd[len(spec.EndToEnd)-1]; last.Name != "setup_s" || last.Unit != "s" || last.Better != "lower" {
		t.Errorf("setup_s entry: %+v", last)
	}
}

func TestJoinBoolValue(t *testing.T) {
	got := joinBoolValue([]string{"--workload", "x", "--trace", "0", "--seed", "3", "-trace"}, "trace")
	want := []string{"--workload", "x", "--trace=0", "--seed", "3", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins the spread estimator to
// statistics.quantiles(xs, n=4), which the contract is written against.
func TestQuartilesMatchPython(t *testing.T) {
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	q1, med, q3 = quartiles([]float64{10, 30, 20})
	if q1 != 10 || med != 20 || q3 != 30 {
		t.Errorf("quartiles of three = %v %v %v, want 10 20 30", q1, med, q3)
	}
}
