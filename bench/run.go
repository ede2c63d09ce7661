package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"confio/internal/platform"
)

// Metric is one named figure with its unit, as the results file and the
// driver's last line carry it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	WindowS   float64 `json:"window_s"`
	Attempted uint64  `json:"attempted"`
	Failed    uint64  `json:"failed"`
	Samples   int     `json:"samples"`
	Correct   bool    `json:"correct"`
	Error     string  `json:"error,omitempty"`
	// OpDigest fingerprints the generated op sequence (seed test).
	OpDigest string `json:"op_digest,omitempty"`
	// EndToEnd holds the gated metrics of BENCHMARK.json; PerLayer
	// everything measured for a single layer.
	EndToEnd map[string]Metric `json:"end_to_end"`
	PerLayer map[string]Metric `json:"per_layer,omitempty"`
}

func (r *Result) failRatio() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// recorder collects what the generator measures. Everything is
// preallocated before the timed window.
type recorder struct {
	lat       *series // per-op latency, ns (fractional for block-timed ops)
	extras    map[string]*series
	attempted uint64
	failed    uint64
	firstErr  error
}

func newRecorder(capacity int) *recorder {
	return &recorder{lat: newSeries(capacity), extras: map[string]*series{}}
}

// extra returns the named side series, creating it on first use (set-up
// is repeated, so builders ask for the same names again).
func (r *recorder) extra(name string, capacity int) *series {
	if s, ok := r.extras[name]; ok {
		return s
	}
	s := newSeries(capacity)
	r.extras[name] = s
	return s
}

// op records one attempted op and its latency; err marks it failed.
func (r *recorder) op(d time.Duration, err error) { r.ops(1, 0, d, err) }

// ops records n attempted ops that took total together, as one latency
// sample of total/n; failed of them failed (at least one when err is set).
func (r *recorder) ops(n, failed uint64, total time.Duration, err error) {
	r.attempted += n
	if err != nil {
		if failed == 0 {
			failed = 1
		}
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
	r.failed += failed
	if failed == 0 {
		r.lat.add(float64(total) / float64(n))
	}
}

func (r *recorder) reset() {
	r.lat.reset()
	for _, s := range r.extras {
		s.reset()
	}
	r.attempted, r.failed, r.firstErr = 0, 0, nil
}

// procSnap is the process-wide state read at each window edge.
type procSnap struct {
	t     time.Time
	cpu   time.Duration
	mem   runtime.MemStats
	costs platform.Costs
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func snap(in instance) procSnap {
	var s procSnap
	runtime.ReadMemStats(&s.mem)
	s.costs = in.costs()
	s.cpu = cpuTime()
	s.t = time.Now()
	return s
}

// runOptions selects how one workload run is bounded and what it adds.
type runOptions struct {
	seed   int64
	window time.Duration // 0: the workload's default
	smoke  bool          // count-bounded (warm-up too), one set-up
	idle   bool          // run the 5 s idle window on workloads that have one
}

var defaultParams = platform.DefaultCostParams()

const (
	warmup     = 2 * time.Second
	idleWindow = 5 * time.Second
	// latCap bounds stored latency samples per run: file-rw makes ~16 k
	// ops/s and ring-frame ~22 k blocks/s, so a 60 s window still fits.
	latCap = 1 << 21
)

// runWorkload builds wl (several times, for the set-up median), warms it
// up, measures the timed window and, when asked, the idle window. The
// generator runs on its own goroutine so a hung op can be abandoned and
// reported instead of hanging the benchmark.
func runWorkload(wl *workloadDef, opt runOptions) *Result {
	// tcp.NewEndpoint draws its ephemeral-port base and ISN from the
	// global source, so seed it before any world exists.
	rand.Seed(opt.seed) //nolint:staticcheck // deliberate: see main.go's go:debug line
	res := &Result{Workload: wl.name, Seed: opt.seed,
		EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}}
	rec := newRecorder(latCap)
	wd := startWatchdog(opTimeout)
	defer wd.close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		generate(wl, opt, rec, wd, res)
	}()
	select {
	case <-done:
	case <-wd.hung:
		// The generator is blocked inside the op it stamped and still
		// owns rec and res, so report from the watchdog's own count.
		return &Result{Workload: wl.name, Seed: opt.seed, Attempted: wd.ops.Load(), Failed: 1,
			Error:    fmt.Sprintf("op exceeded the %v timeout", opTimeout),
			EndToEnd: map[string]Metric{}, PerLayer: map[string]Metric{}}
	}
	if rec.firstErr != nil && res.Error == "" {
		res.Error = rec.firstErr.Error()
	}
	res.Correct = res.Error == "" && res.Failed == 0 && res.Attempted > 0
	return res
}

// generate is the body of the generator goroutine.
func generate(wl *workloadDef, opt runOptions, rec *recorder, wd *watchdog, res *Result) {
	var in instance
	setups := wl.setups
	window := opt.window
	if window == 0 {
		window = wl.window
	}
	var maxOps uint64
	if opt.smoke {
		setups, maxOps = 1, wl.smokeOps
	}
	// bounded runs the generator until the op count (smoke runs, so two
	// runs with one seed do the same ops) or else the duration is used up.
	bounded := func(ops uint64, d time.Duration) {
		for t0 := time.Now(); in.step(); {
			if ops > 0 {
				if rec.attempted >= ops {
					return
				}
			} else if time.Since(t0) >= d {
				return
			}
		}
	}

	// Set-up is timed in two groups, before the warm-up and after the
	// timed window: a neighbour's busy spell lasts seconds and a group of
	// set-ups takes a second or two at most, so one group reads a moment.
	setupS := make([]float64, 0, setups)
	buildN := func(n int) error {
		runtime.GC() // set-ups start from a settled heap whatever ran before
		for k := 0; k < n; k++ {
			if in != nil {
				in.close()
			}
			t0 := time.Now()
			var err error
			if in, err = wl.build(buildEnv{seed: opt.seed, rec: rec, wd: wd, smoke: opt.smoke}); err != nil {
				in = nil
				res.Error = fmt.Sprintf("set-up: %v", err)
				res.Attempted, res.Failed = 1, 1
				return err
			}
			setupS = append(setupS, time.Since(t0).Seconds())
		}
		return nil
	}
	defer func() {
		if in != nil {
			in.close()
		}
	}()
	if buildN((setups+1)/2) != nil {
		return
	}

	bounded(maxOps/8, warmup)
	if rec.failed > 0 {
		res.Error = fmt.Sprintf("warm-up: %v", rec.firstErr)
		res.Attempted, res.Failed = rec.attempted, rec.failed
		return
	}
	rec.reset()
	runtime.GC()

	before := snap(in)
	bounded(maxOps, window)
	after := snap(in)
	summarize(wl, rec, res, after.t.Sub(before.t))
	processMetrics(res, before, after)
	in.layers(func(name string, v float64, unit string) { setMetric(res.PerLayer, name, v, unit) })
	if d, ok := in.(interface{ opDigest() uint64 }); ok {
		res.OpDigest = fmt.Sprintf("%016x", d.opDigest())
	}

	if wl.idle && opt.idle {
		c0, t0 := cpuTime(), time.Now()
		time.Sleep(idleWindow)
		res.PerLayer["process.idle_cpu_pct"] = Metric{100 * float64(cpuTime()-c0) / float64(time.Since(t0)), "%"}
	}

	if buildN(setups/2) != nil {
		return
	}
	sort.Float64s(setupS)
	q := wl.setupQ
	if q == 0 {
		q = 0.5
	}
	res.EndToEnd["setup_s"] = Metric{quantile(setupS, q), "s"}
}

// summarize turns the recorder into the wall-clock end-to-end metrics
// and the workload's own per-layer readings.
func summarize(wl *workloadDef, rec *recorder, res *Result, elapsed time.Duration) {
	res.Attempted, res.Failed = rec.attempted, rec.failed
	res.Samples = rec.lat.n()
	res.WindowS = elapsed.Seconds()
	lo, hi := wl.latency(rec)
	setMetric(res.EndToEnd, "op_lo_us", lo/1e3, "us")
	setMetric(res.EndToEnd, "op_hi_us", hi/1e3, "us")
	sorted := rec.lat.sorted()
	setMetric(res.PerLayer, "workload.op_p50_us", quantile(sorted, 0.50)/1e3, "us")
	setMetric(res.PerLayer, "workload.op_p90_us", quantile(sorted, 0.90)/1e3, "us")
	setMetric(res.PerLayer, "workload.op_p99_whole_us", quantile(sorted, 0.99)/1e3, "us")
	setMetric(res.PerLayer, "workload.ops_per_s", float64(rec.attempted-rec.failed)/elapsed.Seconds(), "1/s")
}

// setMetric stores a measured value. A reading that does not exist (no
// samples, a zero divisor) is left out: JSON has no NaN, and a missing
// metric reads as failed where a made-up 0 would read as fast.
func setMetric(m map[string]Metric, name string, v float64, unit string) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		m[name] = Metric{v, unit}
	}
}

// processMetrics derives the count-based end-to-end metric and the
// process and platform per-layer metrics from the window-edge snapshots.
func processMetrics(res *Result, before, after procSnap) {
	good := float64(res.Attempted - res.Failed)
	if good <= 0 {
		return
	}
	d := after.costs.Sub(before.costs)
	res.EndToEnd["model_ns_per_op"] = Metric{d.ModelNanos(defaultParams) / good, "model_ns"}

	pl := res.PerLayer
	perOp := func(name string, n uint64) { pl[name] = Metric{float64(n) / good, "count"} }
	perOp("platform.tee_crossings_per_op", d.TEECrossings)
	perOp("platform.gate_crossings_per_op", d.GateCrossings)
	perOp("platform.bytes_copied_per_op", d.BytesCopied)
	perOp("platform.checks_per_op", d.Checks)
	perOp("platform.notifications_per_op", d.Notifications)
	perOp("platform.notifs_suppressed_per_op", d.NotifsSuppressed)
	perOp("platform.index_publishes_per_op", d.IndexPublishes)
	perOp("platform.crypto_bytes_per_op", d.CryptoBytes)

	perOp("process.allocs_per_op", after.mem.Mallocs-before.mem.Mallocs)
	pl["process.alloc_bytes_per_op"] = Metric{float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / good, "B"}
	pl["process.cpu_us_per_op"] = Metric{float64(after.cpu-before.cpu) / 1e3 / good, "us"}
	pl["process.gc_cycles"] = Metric{float64(after.mem.NumGC - before.mem.NumGC), "count"}
	pl["process.gc_pause_ms"] = Metric{float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"}
	pl["process.peak_rss_mb"] = Metric{peakRSSMB(), "MB"}
}
