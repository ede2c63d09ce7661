package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/core"
	"confio/internal/cryptdisk"
	"confio/internal/gateway"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/sfs"
	"confio/internal/workload"
)

// Sizes the issue fixes; the README explains each.
const (
	echoSize   = 256
	bulkTotal  = 16 << 20
	bulkChunk  = 32 << 10
	ringFrame  = 1400
	ringBlock  = 250 // Send→Pop→Push→Recv→Release iterations timed as one sample
	ringRound  = 800 // blocks per round: 200 000 iterations, 400 000 frames
	fileCount  = 8
	fileSize   = 256 << 10
	fileOp     = blockdev.SectorSize
	fileDisk   = 8192 // sectors
	opTimeout  = 2 * time.Second
	ringVerify = 64 // full compare on one iteration in this many
)

// instance is one built system under test together with the generator
// that drives it. The closed-loop generator is the goroutine that calls
// step; the system under test adds its own pump and stack goroutines.
type instance interface {
	// step performs one unit of generator work (one echo, one bulk
	// round, one block of ring frames, one file op), records what it
	// measured into the recorder it was built with, and reports whether
	// the generator can go on (false after a connection-level failure).
	step() bool
	// costs snapshots the confidential-side cost meters.
	costs() platform.Costs
	// layers reports workload-specific per-layer figures at the end of
	// the timed window.
	layers(add func(name string, v float64, unit string))
	close()
}

// buildEnv is what a builder gets: the seed its inputs derive from, the
// recorder it reports into, the op watchdog, and whether this is a
// -smoke run (bulk-stream shrinks its rounds to stay under a second).
type buildEnv struct {
	seed  int64
	rec   *recorder
	wd    *watchdog
	smoke bool
}

// workloadDef names a workload and knows how to build it.
type workloadDef struct {
	name string
	why  string
	// window is the default timed window; idle says whether an idle
	// window (connections open, nothing in flight) means anything.
	window time.Duration
	idle   bool
	// setups is how many times set-up is repeated for the median.
	setups int
	// smokeOps is the fixed op count of a -smoke run (count-bounded so
	// two runs with one seed perform the identical op sequence).
	smokeOps uint64
	// latency reads op_lo_us and op_hi_us (in ns) off the recorder at the
	// end of the timed window: see the readings below the table.
	latency func(rec *recorder) (lo, hi float64)
	// setupQ is the quantile of the repeated set-ups that is reported.
	setupQ float64
	build  func(env buildEnv) (instance, error)
}

var workloads = []*workloadDef{
	{
		name:   "echo-small",
		why:    "latency-bound canonical path: 256 B verified echo over dual-boundary (ctls, gate, tcp, netstack, nic, safe ring, pump, simnet); idle loops and wake-ups dominate",
		window: 15 * time.Second, idle: true, setups: 101, smokeOps: 150,
		latency: echoLatency,
		build:   buildEcho,
	},
	{
		name:   "bulk-stream",
		why:    "throughput-bound use of the same layers: 16 MiB rounds in 32 KiB chunks keep queues busy, so AEAD, copies, segmentation and batching do the work, not wake latency",
		window: 15 * time.Second, idle: false, setups: 101, smokeOps: bulkTotal / bulkChunk / 8,
		latency: bulkLatency,
		build:   buildBulk,
	},
	{
		name:   "gw-echo",
		why:    "the gateway's 4-queue event-idx multi-pump path with hello routing, per-tenant ctls and the compartment relay, which the single-queue echo never enters",
		window: 15 * time.Second, idle: true, setups: 101, smokeOps: 150,
		latency: gwLatency,
		build:   buildGateway,
	},
	{
		name:   "ring-frame",
		why:    "the safe ring with nothing above it: 1400 B frames through Send, Pop, Push, Recv, Release; under 0.1% of an echo, so only this workload sees a slower ring",
		window: 10 * time.Second, idle: false, setups: 1001, smokeOps: 80 * 2 * ringBlock,
		latency: ringLatency, setupQ: 0.10,
		build: buildRing,
	},
	{
		name:   "file-rw",
		why:    "the storage half of the shared engine: sfs over cryptdisk over blkring over MemDisk, seeded 4 KiB reads and writes 3:1, every read checked against a shadow copy",
		window: 10 * time.Second, idle: false, setups: 31, smokeOps: 1500,
		latency: fileLatency,
		build:   buildFile,
	},
}

// The readings below are the product of one finding (README, hazard 2):
// on this shared host a mean, a rate, or a quantile that falls between two
// clusters of latencies moves 15-30 % between runs of the same code,
// because what moves is how the ops divide among the clusters (how often
// a sleeper is caught awake), and that follows the host's mood. Where the
// clusters sit holds to a few per cent. So each workload is read twice
// inside a cluster or, where neighbours can only add time, at the fast
// end: op_lo_us is the lower reading, op_hi_us the higher. The plain
// median, p90, p99 and rate stay in the per-layer list, ungated.

// atQuantiles reads the window's op latencies at two fixed quantiles.
func atQuantiles(lo, hi float64) func(*recorder) (float64, float64) {
	return func(rec *recorder) (float64, float64) {
		sorted := rec.lat.sorted()
		return quantile(sorted, lo), quantile(sorted, hi)
	}
}

// A round trip of the echo workloads waits for four sleepers (two pumps,
// two receive loops) that wake on a ~1.1 ms grid, so its latencies fall
// into clusters at 1, 2, 3 and 4 grid steps. Over 38 runs, quiet and
// under CPU hogs, the one-step cluster always held the 10th to 20th
// percentile of echo-small and the 20th to 28th of gw-echo, and the
// two-step cluster the 50th to 62nd and 55th to 68th; those two are read.
// Nothing higher held: the 90th sits in the three-step cluster on a quiet
// host and in the four-step one (+25 %) under two hogs, and the plain
// median of gw-echo fell into the gap below its cluster in 3 runs of 38.
var (
	echoLatency = atQuantiles(0.15, 0.60)
	gwLatency   = atQuantiles(0.25, 0.60)
)

// bulkSlices is how many consecutive parts of the window bulk-stream's
// chunk latencies are cut into: about a second of chunks each.
const bulkSlices = 20

// bulkLatency reads bulk-stream from the fast end: the stack is busy
// throughout, so whatever else runs on the host only takes time away.
// The lower reading is what the lower-decile round costs per chunk (the
// reciprocal of goodput; a chunk's own Write returns as soon as it is
// buffered, so the rounds carry the throughput). The higher reading is
// the 90th percentile of the chunk Writes, the ones that waited for send
// window, in the lower-decile slice of the window.
func bulkLatency(rec *recorder) (lo, hi float64) {
	lo = math.NaN()
	if rounds := rec.extras["round"]; rounds != nil {
		lo = rounds.quantile(0.10)
	}
	return lo, rec.lat.sliced(bulkSlices, 0.90, 0.10)
}

// ringLatency reads ring-frame from the fast end of the whole window.
// The loop is single-threaded and CPU-bound and every block does the
// same work, so it has no tail of its own: whatever else runs on the host
// only ever adds time, in bursts from under a millisecond to plateaus of
// many seconds at +45 % (a neighbour on the sibling hardware thread). In
// 22 runs the median block moved 168-250 ns a frame and the p90 227-315,
// with up to four fifths of a run on such a plateau, while the
// whole-window 0.1st-percentile block held 156.4-163.6 (169.7 once,
// under two hogs). The lower reading is therefore that block (the
// uncontended cost, which is what a change to the ring moves; it needs
// 0.1 % of the window quiet, where a median of slices needs half of it),
// and the higher the 1st-percentile block: a second look at the same end.
var ringLatency = atQuantiles(0.001, 0.01)

// fileLatency reads file-rw. Reads and writes each fall into two
// clusters: the backend goroutine was still polling when the request
// arrived (reads 22 us, writes 43 us) or it had gone to sleep on its bell
// and had to be woken (reads 38 us, writes 75 us), and the share of ops
// that find it awake moved from under half to nine tenths between sweeps
// (more on a busier host). The 10th percentile of each kind sits inside
// its polling cluster at either share and held to 2 % over 38 runs: the
// lower reading is that read, the higher that write.
func fileLatency(rec *recorder) (lo, hi float64) {
	lo, hi = math.NaN(), math.NaN()
	if r := rec.extras["read"]; r != nil {
		lo = r.quantile(0.10)
	}
	if w := rec.extras["write"]; w != nil {
		hi = w.quantile(0.10)
	}
	return lo, hi
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// --- op watchdog -------------------------------------------------------

// watchdog enforces the 2 s op timeout on connections whose public type
// exposes no deadline: the generator stamps each op's start, and a
// ticker goroutine closes hung once a stamp is older than the timeout.
// The runner then abandons the blocked generator and reports the op as
// failed. It allocates nothing per op.
type watchdog struct {
	started atomic.Int64 // unix nanos of the op in flight, 0 when idle
	ops     atomic.Uint64
	fired   atomic.Bool
	hung    chan struct{}
	stop    chan struct{}
	wg      sync.WaitGroup
}

func startWatchdog(timeout time.Duration) *watchdog {
	w := &watchdog{hung: make(chan struct{}), stop: make(chan struct{})}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(timeout / 8)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case now := <-tick.C:
				if s := w.started.Load(); s != 0 && now.UnixNano()-s > int64(timeout) {
					if w.fired.CompareAndSwap(false, true) {
						close(w.hung)
					}
				}
			}
		}
	}()
	return w
}

func (w *watchdog) begin(t time.Time) {
	w.ops.Add(1)
	w.started.Store(t.UnixNano())
}

func (w *watchdog) end() { w.started.Store(0) }

func (w *watchdog) close() {
	close(w.stop)
	w.wg.Wait()
}

// --- echo-small and gw-echo -------------------------------------------

// errVerify marks an op whose bytes came back wrong: counted as failed,
// but the connection is still in step, so the generator goes on.
var errVerify = errors.New("verification failed")

// echoConn is one verified request/reply loop over a secure connection.
type echoConn struct {
	conn io.ReadWriter
	resp []byte
	next uint64 // payload id of the next request
	// corrupt, when set, mutates a reply before verification (the
	// negative test flips one byte to prove failures are reported).
	corrupt func([]byte)
}

// roundTrip sends one request and checks every byte of the reply.
func (e *echoConn) roundTrip(wd *watchdog) (time.Duration, error) {
	id := e.next
	e.next++
	req := workload.Payload(id, echoSize)
	t0 := time.Now()
	wd.begin(t0)
	defer wd.end()
	if _, err := e.conn.Write(req); err != nil {
		return 0, fmt.Errorf("echo write: %w", err)
	}
	if _, err := io.ReadFull(e.conn, e.resp); err != nil {
		return 0, fmt.Errorf("echo read: %w", err)
	}
	d := time.Since(t0)
	if e.corrupt != nil {
		e.corrupt(e.resp)
	}
	if err := workload.Verify(id, e.resp); err != nil {
		return d, fmt.Errorf("%w: %v", errVerify, err)
	}
	return d, nil
}

// payloadBase spreads seeds over the payload-id space so two seeds never
// send the same request bytes.
func payloadBase(seed int64, lane uint64) uint64 { return uint64(seed)<<32 | lane<<28 }

type echoInst struct {
	w    *core.World
	conn io.ReadWriteCloser
	ec   echoConn
	wd   *watchdog
	rec  *recorder
}

func buildEcho(env buildEnv) (instance, error) {
	seed, rec, wd := env.seed, env.rec, env.wd
	w, err := core.NewWorld(core.DualBoundary)
	if err != nil {
		return nil, err
	}
	conn, err := w.DialApp()
	if err != nil {
		w.Close()
		return nil, err
	}
	// 'E' selects core's echo service on an application connection.
	if _, err := conn.Write([]byte{'E'}); err != nil {
		w.Close()
		return nil, err
	}
	in := &echoInst{w: w, conn: conn, rec: rec, wd: wd,
		ec: echoConn{conn: conn, resp: make([]byte, echoSize), next: payloadBase(seed, 0)}}
	if _, err := in.ec.roundTrip(in.wd); err != nil {
		in.close()
		return nil, fmt.Errorf("first echo: %w", err)
	}
	return in, nil
}

func (in *echoInst) step() bool {
	d, err := in.ec.roundTrip(in.wd)
	in.rec.op(d, err)
	return err == nil || errors.Is(err, errVerify)
}

func (in *echoInst) costs() platform.Costs { return in.w.Costs() }

func (in *echoInst) layers(func(string, float64, string)) {}

func (in *echoInst) close() {
	in.conn.Close()
	in.w.Close()
}

var gwTenants = [2]gateway.TenantID{2, 3}

type gwInst struct {
	n     *gateway.Node
	conns [2]io.ReadWriteCloser
	ecs   [2]echoConn
	turn  int
	wd    *watchdog
	rec   *recorder
	// tenant holds each measured tenant's client-side latencies, for
	// the p99 spread between them.
	tenant [2]*series
}

func buildGateway(env buildEnv) (instance, error) {
	seed, rec, wd := env.seed, env.rec, env.wd
	n, err := gateway.NewNode(gateway.DefaultNodeConfig())
	if err != nil {
		return nil, err
	}
	in := &gwInst{n: n, rec: rec, wd: wd}
	for i, id := range gwTenants {
		c, err := n.DialTenant(id)
		if err != nil {
			in.close()
			return nil, fmt.Errorf("dial %v: %w", id, err)
		}
		in.conns[i] = c
		in.ecs[i] = echoConn{conn: c, resp: make([]byte, echoSize), next: payloadBase(seed, uint64(i+1))}
		in.tenant[i] = rec.extra(fmt.Sprintf("tenant%d", id), rec.lat.capacity()/2)
		if _, err := in.ecs[i].roundTrip(in.wd); err != nil {
			in.close()
			return nil, fmt.Errorf("first echo as %v: %w", id, err)
		}
	}
	return in, nil
}

func (in *gwInst) step() bool {
	i := in.turn
	in.turn ^= 1
	d, err := in.ecs[i].roundTrip(in.wd)
	if err == nil {
		in.tenant[i].add(float64(d))
	}
	in.rec.op(d, err)
	return err == nil || errors.Is(err, errVerify)
}

func (in *gwInst) costs() platform.Costs { return in.n.Bank.Snapshot().Add(in.n.Tb.Snapshot()) }

func (in *gwInst) layers(add func(string, float64, string)) {
	var worstInternal time.Duration
	var drops, evictions uint64
	for _, id := range gwTenants {
		if l := in.n.Tb.TenantLatency(uint64(id)); l.P99 > worstInternal {
			worstInternal = l.P99
		}
		c := in.n.Tb.Tenant(uint64(id))
		drops += c.Drops
		evictions += c.Evictions
	}
	add("gateway.internal_p99_us", float64(worstInternal)/1e3, "us")
	a, b := in.tenant[0].quantile(0.99), in.tenant[1].quantile(0.99)
	if a < b {
		a, b = b, a
	}
	if b > 0 {
		add("gateway.p99_spread", a/b, "ratio")
	}
	add("gateway.tenant_drops", float64(drops), "count")
	add("gateway.tenant_evictions", float64(evictions), "count")
}

func (in *gwInst) close() {
	for _, c := range in.conns {
		if c != nil {
			c.Close()
		}
	}
	in.n.Close()
}

// --- bulk-stream -------------------------------------------------------

type bulkInst struct {
	w       *core.World
	payload []byte
	total   int64
	wd      *watchdog
	rec     *recorder
	rounds  *series // each round's duration per chunk, ns
}

func buildBulk(env buildEnv) (instance, error) {
	seed, rec, wd := env.seed, env.rec, env.wd
	w, err := core.NewWorld(core.DualBoundary)
	if err != nil {
		return nil, err
	}
	total := int64(bulkTotal)
	if env.smoke {
		total = bulkTotal / 8
	}
	in := &bulkInst{w: w, rec: rec, wd: wd, total: total,
		payload: workload.Payload(payloadBase(seed, 0), bulkChunk),
		rounds:  rec.extra("round", 4096)}
	// Set-up ends at the first verified op: one chunk, acknowledged.
	if err := in.round(bulkChunk, false); err != nil {
		in.close()
		return nil, fmt.Errorf("first chunk: %w", err)
	}
	return in, nil
}

// round streams total bytes over a fresh application connection, the way
// core.World.RunBulk does, but timing each chunk: header, chunks, then
// the server's acknowledgement that it received exactly total bytes.
func (in *bulkInst) round(total int64, record bool) error {
	conn, err := in.w.DialApp()
	if err != nil {
		return err
	}
	defer conn.Close()
	var hdr [9]byte
	hdr[0] = 'B' // core's bulk service
	binary.BigEndian.PutUint64(hdr[1:], uint64(total))
	if _, err := conn.Write(hdr[:]); err != nil {
		return fmt.Errorf("bulk header: %w", err)
	}
	defer in.wd.end()
	start := time.Now()
	for sent := int64(0); sent < total; {
		n := int64(len(in.payload))
		if rem := total - sent; n > rem {
			n = rem
		}
		t0 := time.Now()
		in.wd.begin(t0)
		if _, err := conn.Write(in.payload[:n]); err != nil {
			return fmt.Errorf("bulk write after %d bytes: %w", sent, err)
		}
		sent += n
		if record {
			in.rec.op(time.Since(t0), nil)
		}
	}
	in.wd.begin(time.Now())
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("bulk ack: %w", err)
	}
	if ack[0] != 1 {
		return errors.New("bulk ack: server did not confirm the byte count")
	}
	if record {
		in.rounds.add(float64(time.Since(start)) * bulkChunk / float64(total))
	}
	return nil
}

func (in *bulkInst) step() bool {
	before := in.rec.attempted
	if err := in.round(in.total, true); err != nil {
		// The chunks of a failed round were never acknowledged.
		in.rec.failed += in.rec.attempted - before
		in.rec.op(0, err)
		return false
	}
	return true
}

func (in *bulkInst) costs() platform.Costs { return in.w.Costs() }

func (in *bulkInst) layers(add func(string, float64, string)) {
	if in.rounds.n() > 0 {
		add("workload.goodput_MBps", bulkChunk/1e6/(in.rounds.quantile(0.5)/1e9), "MB/s")
	}
}

func (in *bulkInst) close() { in.w.Close() }

// --- ring-frame --------------------------------------------------------

type ringInst struct {
	meter   platform.Meter
	ep      *safering.Endpoint
	hp      *safering.HostPort
	payload []byte
	buf     []byte
	iter    uint64
	block   int
	rstart  time.Time
	rec     *recorder
	rounds  *series
}

func buildRing(env buildEnv) (instance, error) {
	seed, rec := env.seed, env.rec
	cfg := safering.DefaultConfig()
	cfg.Notify = true
	cfg.EventIdx = true
	in := &ringInst{rec: rec, rounds: rec.extra("round", 4096),
		payload: workload.Payload(payloadBase(seed, 0), ringFrame)}
	ep, err := safering.New(cfg, &in.meter)
	if err != nil {
		return nil, err
	}
	in.ep, in.hp = ep, safering.NewHostPort(ep.Shared())
	// Sustained load: both consumers withdraw their wake thresholds once,
	// so every doorbell of the run is elided.
	in.hp.SuppressTXNotify()
	in.ep.SuppressRXNotify()
	in.buf = make([]byte, cfg.FrameCap())
	// Set-up ends once every slot of both rings has carried one fully
	// compared frame: the first lap faults the shared memory in, and it
	// is most of what makes this set-up long enough to time steadily.
	for i := 0; i < cfg.Slots; i++ {
		if err := in.frame(true); err != nil {
			return nil, fmt.Errorf("first lap: %w", err)
		}
	}
	return in, nil
}

// frame moves the payload guest→host and host→guest once: two frames.
// Lengths are checked on both; full is whether to compare every byte.
func (in *ringInst) frame(full bool) error {
	if err := in.ep.Send(in.payload); err != nil {
		return err
	}
	n, err := in.hp.Pop(in.buf)
	if err != nil {
		return err
	}
	if n != len(in.payload) || (full && !bytes.Equal(in.buf[:n], in.payload)) {
		return errors.New("ring-frame: transmit frame corrupted")
	}
	if err := in.hp.Push(in.buf[:n]); err != nil {
		return err
	}
	rx, err := in.ep.Recv()
	if err != nil {
		return err
	}
	got := rx.Bytes()
	bad := len(got) != len(in.payload) || (full && !bytes.Equal(got, in.payload))
	rx.Release()
	if bad {
		return errors.New("ring-frame: receive frame corrupted")
	}
	return nil
}

// step runs one block of ringBlock iterations and records its mean frame
// time as one sample; every ringRound blocks close a round.
func (in *ringInst) step() bool {
	if in.block == 0 {
		in.rstart = time.Now()
	}
	t0 := time.Now()
	var firstErr error
	failed := uint64(0)
	for i := 0; i < ringBlock; i++ {
		in.iter++
		if err := in.frame(in.iter%ringVerify == 0); err != nil {
			failed += 2
			if firstErr == nil {
				firstErr = err
			}
		}
	}
	d := time.Since(t0)
	in.rec.ops(2*ringBlock, failed, d, firstErr)
	in.block++
	if in.block == ringRound {
		in.rounds.add(float64(time.Since(in.rstart)))
		in.block = 0
	}
	return firstErr == nil
}

func (in *ringInst) costs() platform.Costs { return in.meter.Snapshot() }

func (in *ringInst) layers(add func(string, float64, string)) {
	mid, _ := ringLatency(in.rec)
	add("workload.frame_ns", mid, "ns")
	if in.rounds.n() > 0 {
		add("workload.round_frame_ns", in.rounds.quantile(0.25)/(2*ringBlock*ringRound), "ns")
	}
}

func (in *ringInst) close() {}

// --- file-rw -----------------------------------------------------------

// fileStack is the storage stack the benchmark assembles itself from
// public constructors. wrap, when set, interposes on each disk seam
// (the storage trace and the negative test use it).
type fileStack struct {
	meter platform.Meter
	be    *blkring.Backend
	fs    *sfs.FS
}

// seams names where a disk wrapper may be interposed.
type seams struct {
	platter func(blockdev.Disk) blockdev.Disk // behind the backend
	ring    func(blockdev.Disk) blockdev.Disk // above blkring
	crypt   func(blockdev.Disk) blockdev.Disk // above cryptdisk
}

// at interposes f on d when the seam is in use.
func at(f func(blockdev.Disk) blockdev.Disk, d blockdev.Disk) blockdev.Disk {
	if f == nil {
		return d
	}
	return f(d)
}

func newFileStack(s seams) (*fileStack, error) {
	st := &fileStack{}
	ep, err := blkring.New(64, fileDisk, &st.meter)
	if err != nil {
		return nil, err
	}
	st.be = blkring.NewBackend(ep.Shared(), at(s.platter, blockdev.NewMemDisk(fileDisk)))
	st.be.Start()
	cd, _, err := cryptdisk.Format(at(s.ring, ep), fileDisk, []byte("confbench-volume"), &st.meter)
	if err != nil {
		st.close()
		return nil, err
	}
	top := at(s.crypt, cd)
	if err := sfs.Mkfs(top, 64); err != nil {
		st.close()
		return nil, err
	}
	if st.fs, err = sfs.Mount(top); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *fileStack) close() { st.be.Stop() }

type fileInst struct {
	st     *fileStack
	rng    *rand.Rand
	names  [fileCount]string
	shadow [fileCount][]byte
	buf    []byte
	wbuf   []byte
	fill   uint64 // xorshift state for new write contents
	digest uint64 // FNV-1a over the op sequence
	rec    *recorder
	reads  *series
	writes *series
}

// buildFile needs no watchdog: blkring bounds every request itself.
func buildFile(env buildEnv) (instance, error) {
	return buildFileOn(env.seed, env.rec, seams{})
}

func buildFileOn(seed int64, rec *recorder, s seams) (*fileInst, error) {
	st, err := newFileStack(s)
	if err != nil {
		return nil, err
	}
	in := &fileInst{st: st, rec: rec, rng: rand.New(rand.NewSource(seed)),
		buf: make([]byte, fileOp), wbuf: make([]byte, fileOp), fill: uint64(seed)*0x9E3779B97F4A7C15 + 1, digest: 14695981039346656037,
		reads: rec.extra("read", rec.lat.capacity()), writes: rec.extra("write", rec.lat.capacity()/2)}
	for i := range in.names {
		in.names[i] = fmt.Sprintf("f%d", i)
		in.shadow[i] = workload.Payload(payloadBase(seed, uint64(i)), fileSize)
		if err := st.fs.Create(in.names[i], fileSize); err != nil {
			in.close()
			return nil, err
		}
		if err := st.fs.Write(in.names[i], 0, in.shadow[i]); err != nil {
			in.close()
			return nil, err
		}
	}
	// First verified op: read back the head of the first file.
	if _, err := in.read(0, 0); err != nil {
		in.close()
		return nil, fmt.Errorf("first read: %w", err)
	}
	return in, nil
}

func (in *fileInst) read(f int, off int64) (time.Duration, error) {
	t0 := time.Now()
	n, err := in.st.fs.Read(in.names[f], off, in.buf)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if n != fileOp || !bytes.Equal(in.buf, in.shadow[f][off:off+fileOp]) {
		return d, fmt.Errorf("file-rw: %s@%d differs from the last write", in.names[f], off)
	}
	return d, nil
}

func (in *fileInst) step() bool {
	f := in.rng.Intn(fileCount)
	off := int64(in.rng.Intn(fileSize/fileOp)) * fileOp
	write := in.rng.Intn(4) == 0
	kind := uint64(0)
	if write {
		kind = 1
	}
	for _, x := range [3]uint64{kind, uint64(f), uint64(off)} {
		in.digest = (in.digest ^ x) * 1099511628211
	}
	var d time.Duration
	var err error
	if write {
		// New contents go to the shadow only once the write succeeded.
		for i := 0; i < len(in.wbuf); i += 8 {
			in.fill ^= in.fill << 13
			in.fill ^= in.fill >> 7
			in.fill ^= in.fill << 17
			binary.LittleEndian.PutUint64(in.wbuf[i:], in.fill)
		}
		t0 := time.Now()
		err = in.st.fs.Write(in.names[f], off, in.wbuf)
		d = time.Since(t0)
		if err == nil {
			copy(in.shadow[f][off:], in.wbuf)
			in.writes.add(float64(d))
		}
	} else {
		if d, err = in.read(f, off); err == nil {
			in.reads.add(float64(d))
		}
	}
	in.rec.op(d, err)
	// A failed op is counted; the stack stays usable unless it died.
	return true
}

func (in *fileInst) costs() platform.Costs { return in.st.meter.Snapshot() }

func (in *fileInst) layers(add func(string, float64, string)) {
	add("sfs.read_p50_us", in.reads.quantile(0.5)/1e3, "us")
	add("sfs.write_p50_us", in.writes.quantile(0.5)/1e3, "us")
}

func (in *fileInst) opDigest() uint64 { return in.digest }

func (in *fileInst) close() { in.st.close() }
