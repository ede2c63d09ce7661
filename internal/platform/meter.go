package platform

import (
	"fmt"
	"math/bits"
	"sync/atomic"
	"time"
)

// Meter accumulates boundary events on a confidential I/O path. All
// methods are safe for concurrent use; transports and stacks share one
// meter per experiment run.
type Meter struct {
	teeCrossings  atomic.Uint64
	gateCrossings atomic.Uint64
	bytesCopied   atomic.Uint64
	checks        atomic.Uint64
	notifications atomic.Uint64
	suppressed    atomic.Uint64
	publications  atomic.Uint64
	cryptoBytes   atomic.Uint64
	pagesShared   atomic.Uint64
	pagesRevoked  atomic.Uint64
	deaths        atomic.Uint64
	reincarnation atomic.Uint64
	stalls        atomic.Uint64
	frames        atomic.Uint64
	drops         atomic.Uint64
	evictions     atomic.Uint64

	// lat is the HDR-style log-linear latency histogram behind
	// RecordLatency/LatencyPercentiles (see latIndex for the bucket
	// scheme). Fixed-size atomics: recording is lock-free and the whole
	// histogram merges across a MeterBank by bucket-wise addition.
	lat latHist
}

// CrossTEE records n world switches between the TEE and the host
// (hypercall/vmexit for confidential VMs, ocall/ecall for enclaves).
func (m *Meter) CrossTEE(n int) {
	if m != nil {
		m.teeCrossings.Add(uint64(n))
	}
}

// CrossGate records n intra-TEE compartment gate crossings (the paper's
// lightweight L5 boundary), each one domain switch; a gate call is two.
func (m *Meter) CrossGate(n int) {
	if m != nil {
		m.gateCrossings.Add(uint64(n))
	}
}

// Copy records n bytes copied across a trust boundary.
func (m *Meter) Copy(n int) {
	if m != nil {
		m.bytesCopied.Add(uint64(n))
	}
}

// Check records n validation checks executed on untrusted input.
func (m *Meter) Check(n int) {
	if m != nil {
		m.checks.Add(uint64(n))
	}
}

// Notify records n doorbell/interrupt notifications.
func (m *Meter) Notify(n int) {
	if m != nil {
		m.notifications.Add(uint64(n))
	}
}

// NotifySuppressed records n doorbell rings the event-idx predicate
// elided: work the peer will discover by polling, with no boundary
// crossing spent. The pair (Notifications, NotifsSuppressed) is the
// suppression story a benchmark reports.
func (m *Meter) NotifySuppressed(n int) {
	if m != nil {
		m.suppressed.Add(uint64(n))
	}
}

// Publish records n shared index publications (producer/consumer stores
// made visible to the peer). A publication is an ordinary cached store —
// it carries no ModelNanos weight — but each one is a serialization point
// the peer may poll, so batched datapaths are judged by how few they
// issue per frame (see EXPERIMENTS.md "notifications per frame").
func (m *Meter) Publish(n int) {
	if m != nil {
		m.publications.Add(uint64(n))
	}
}

// Crypto records n bytes encrypted, decrypted or MACed on the I/O path.
func (m *Meter) Crypto(n int) {
	if m != nil {
		m.cryptoBytes.Add(uint64(n))
	}
}

// Share records n pages shared with the host.
func (m *Meter) Share(n int) {
	if m != nil {
		m.pagesShared.Add(uint64(n))
	}
}

// Revoke records n pages un-shared (revoked) from the host.
func (m *Meter) Revoke(n int) {
	if m != nil {
		m.pagesRevoked.Add(uint64(n))
	}
}

// Death records n device fail-dead transitions (a latched protocol
// violation or declared host stall). Liveness events carry no ModelNanos
// weight — they are not datapath work — but they are part of the cost
// story: every death means a full device teardown plus quarantine.
func (m *Meter) Death(n int) {
	if m != nil {
		m.deaths.Add(uint64(n))
	}
}

// Reincarnation records n successful device rebirths at a new epoch.
func (m *Meter) Reincarnation(n int) {
	if m != nil {
		m.reincarnation.Add(uint64(n))
	}
}

// Stall records n host-stall detections by the progress watchdog.
func (m *Meter) Stall(n int) {
	if m != nil {
		m.stalls.Add(uint64(n))
	}
}

// Frame records n application-level frames (messages) carried for the
// principal this meter is attributed to — the gateway charges each
// relayed message to its tenant's meter, so throughput blame is
// per-tenant, not device-global.
func (m *Meter) Frame(n int) {
	if m != nil {
		m.frames.Add(uint64(n))
	}
}

// Drop records n frames or flows discarded for the metered principal
// (admission refusals, shed flows, quota overflow). Drops carry no
// ModelNanos weight; they are the blame column of the fairness story.
func (m *Meter) Drop(n int) {
	if m != nil {
		m.drops.Add(uint64(n))
	}
}

// Evict records n sticky tenant evictions (a per-tenant fault budget
// exhausted — the tenant-scoped analogue of device fail-dead).
func (m *Meter) Evict(n int) {
	if m != nil {
		m.evictions.Add(uint64(n))
	}
}

// Costs is an immutable snapshot of a Meter.
type Costs struct {
	TEECrossings     uint64
	GateCrossings    uint64
	BytesCopied      uint64
	Checks           uint64
	Notifications    uint64
	NotifsSuppressed uint64
	IndexPublishes   uint64
	CryptoBytes      uint64
	PagesShared      uint64
	PagesRevoked     uint64
	Deaths           uint64
	Reincarnations   uint64
	StallsDetected   uint64
	Frames           uint64
	Drops            uint64
	Evictions        uint64
}

// Snapshot captures the meter's current counters.
func (m *Meter) Snapshot() Costs {
	return Costs{
		TEECrossings:     m.teeCrossings.Load(),
		GateCrossings:    m.gateCrossings.Load(),
		BytesCopied:      m.bytesCopied.Load(),
		Checks:           m.checks.Load(),
		Notifications:    m.notifications.Load(),
		NotifsSuppressed: m.suppressed.Load(),
		IndexPublishes:   m.publications.Load(),
		CryptoBytes:      m.cryptoBytes.Load(),
		PagesShared:      m.pagesShared.Load(),
		PagesRevoked:     m.pagesRevoked.Load(),
		Deaths:           m.deaths.Load(),
		Reincarnations:   m.reincarnation.Load(),
		StallsDetected:   m.stalls.Load(),
		Frames:           m.frames.Load(),
		Drops:            m.drops.Load(),
		Evictions:        m.evictions.Load(),
	}
}

// Sub returns c - earlier, the events between two snapshots.
func (c Costs) Sub(earlier Costs) Costs {
	return Costs{
		TEECrossings:     c.TEECrossings - earlier.TEECrossings,
		GateCrossings:    c.GateCrossings - earlier.GateCrossings,
		BytesCopied:      c.BytesCopied - earlier.BytesCopied,
		Checks:           c.Checks - earlier.Checks,
		Notifications:    c.Notifications - earlier.Notifications,
		NotifsSuppressed: c.NotifsSuppressed - earlier.NotifsSuppressed,
		IndexPublishes:   c.IndexPublishes - earlier.IndexPublishes,
		CryptoBytes:      c.CryptoBytes - earlier.CryptoBytes,
		PagesShared:      c.PagesShared - earlier.PagesShared,
		PagesRevoked:     c.PagesRevoked - earlier.PagesRevoked,
		Deaths:           c.Deaths - earlier.Deaths,
		Reincarnations:   c.Reincarnations - earlier.Reincarnations,
		StallsDetected:   c.StallsDetected - earlier.StallsDetected,
		Frames:           c.Frames - earlier.Frames,
		Drops:            c.Drops - earlier.Drops,
		Evictions:        c.Evictions - earlier.Evictions,
	}
}

// Add returns c + other.
func (c Costs) Add(other Costs) Costs {
	return Costs{
		TEECrossings:     c.TEECrossings + other.TEECrossings,
		GateCrossings:    c.GateCrossings + other.GateCrossings,
		BytesCopied:      c.BytesCopied + other.BytesCopied,
		Checks:           c.Checks + other.Checks,
		Notifications:    c.Notifications + other.Notifications,
		NotifsSuppressed: c.NotifsSuppressed + other.NotifsSuppressed,
		IndexPublishes:   c.IndexPublishes + other.IndexPublishes,
		CryptoBytes:      c.CryptoBytes + other.CryptoBytes,
		PagesShared:      c.PagesShared + other.PagesShared,
		PagesRevoked:     c.PagesRevoked + other.PagesRevoked,
		Deaths:           c.Deaths + other.Deaths,
		Reincarnations:   c.Reincarnations + other.Reincarnations,
		StallsDetected:   c.StallsDetected + other.StallsDetected,
		Frames:           c.Frames + other.Frames,
		Drops:            c.Drops + other.Drops,
		Evictions:        c.Evictions + other.Evictions,
	}
}

func (c Costs) String() string {
	s := fmt.Sprintf("tee=%d gate=%d copied=%dB checks=%d notif=%d pub=%d crypto=%dB shared=%dpg revoked=%dpg",
		c.TEECrossings, c.GateCrossings, c.BytesCopied, c.Checks, c.Notifications, c.IndexPublishes, c.CryptoBytes, c.PagesShared, c.PagesRevoked)
	// Suppressed notifications (like liveness events below) are zero
	// unless the deployment enables event-idx; appending them only when
	// present keeps the steady-state benchmark lines unchanged.
	if c.NotifsSuppressed != 0 {
		s += fmt.Sprintf(" suppressed=%d", c.NotifsSuppressed)
	}
	// Liveness events are zero in every healthy run; appending them only
	// when present keeps the steady-state benchmark lines unchanged.
	if c.Deaths != 0 || c.Reincarnations != 0 || c.StallsDetected != 0 {
		s += fmt.Sprintf(" deaths=%d reinc=%d stalls=%d", c.Deaths, c.Reincarnations, c.StallsDetected)
	}
	// Tenant-attribution counters only appear on gateway meters.
	if c.Frames != 0 || c.Drops != 0 || c.Evictions != 0 {
		s += fmt.Sprintf(" frames=%d drops=%d evict=%d", c.Frames, c.Drops, c.Evictions)
	}
	return s
}

// CostParams weights each event class in nanoseconds. The defaults are
// calibrated to publicly reported magnitudes for the hardware the paper
// targets; experiments care about ratios and crossover points, not
// absolute values, and sweeps vary these parameters explicitly
// (e.g. BenchmarkRevocationVsCopy varies RevokePageNs).
type CostParams struct {
	TEECrossNs  float64 // world switch (vmexit / ocall+eexit)
	GateCrossNs float64 // intra-TEE compartment switch (MPK-like)
	CopyByteNs  float64 // per-byte cross-boundary copy
	CheckNs     float64 // per validation check on untrusted input
	NotifyNs    float64 // doorbell / injected interrupt
	CryptoNs    float64 // per byte of AEAD work
	SharePageNs float64 // share a page with the host
	RevokeNs    float64 // revoke (un-share) a page: EPT update + flush
}

// DefaultCostParams returns the calibration used throughout EXPERIMENTS.md.
func DefaultCostParams() CostParams {
	return CostParams{
		TEECrossNs:  4000, // ~4 µs: SGX ocall round trip / CVM vmexit+resume
		GateCrossNs: 120,  // ~120 ns per domain switch; a gate call is two
		CopyByteNs:  0.06, // ~16 GB/s effective single-core memcpy
		CheckNs:     2,    // branch + load on untrusted input
		NotifyNs:    1500, // interrupt injection path
		CryptoNs:    0.45, // ~2.2 GB/s single-core AES-GCM
		SharePageNs: 900,  // page-table/RMP update
		RevokeNs:    2500, // EPT/RMP update + TLB shootdown
	}
}

// --- Latency histogram (HDR-style log-linear) ---

// The histogram trades a fixed, small relative error for lock-free
// constant-space recording: nanosecond values are bucketed by their
// power-of-two magnitude (the "major") subdivided into latSub linear
// sub-buckets, so every bucket is at most 1/latSub wide relative to its
// value (~6.25% with latSub=16). That is the classic HDR layout, sized
// here for uint64 nanoseconds: values below latSub map one-to-one, and
// the largest major (2^63) still lands in range.

const (
	latSubBits = 4
	latSub     = 1 << latSubBits // linear sub-buckets per power of two
	// latBuckets covers majors latSubBits..63 at latSub buckets each,
	// plus the latSub exact buckets for values < latSub.
	latBuckets = (64-latSubBits)*latSub + latSub
)

// latHist is the bucket array; index with latIndex.
type latHist struct {
	count   atomic.Uint64
	buckets [latBuckets]atomic.Uint64
}

// latIndex maps a nanosecond value to its bucket.
func latIndex(v uint64) int {
	if v < latSub {
		return int(v)
	}
	major := bits.Len64(v) - 1 // >= latSubBits
	sub := (v >> (uint(major) - latSubBits)) & (latSub - 1)
	return (major-latSubBits+1)*latSub + int(sub)
}

// latValue returns the lower bound of bucket idx — the value
// LatencyPercentiles reports for samples landing there (under-reporting
// by at most one sub-bucket width, ~6.25%).
func latValue(idx int) uint64 {
	if idx < latSub {
		return uint64(idx)
	}
	major := uint(idx/latSub) - 1 + latSubBits
	sub := uint64(idx % latSub)
	return 1<<major + sub<<(major-latSubBits)
}

// RecordLatency adds one operation latency to the histogram. Negative
// durations (a clock hiccup) record as zero. Nil-safe, lock-free.
func (m *Meter) RecordLatency(d time.Duration) {
	if m == nil {
		return
	}
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	m.lat.buckets[latIndex(v)].Add(1)
	m.lat.count.Add(1)
}

// LatencySummary is one percentile snapshot of a latency histogram.
// Percentile values carry the histogram's bucket resolution (~6%
// relative error); Count is exact.
type LatencySummary struct {
	Count          uint64
	P50, P99, P999 time.Duration
}

func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d p50=%v p99=%v p999=%v", s.Count, s.P50, s.P99, s.P999)
}

// latSnapshot accumulates the histogram's buckets into dst and returns
// the total sample count added (the merge primitive MeterBank uses).
//
// The count is read BEFORE the buckets: RecordLatency increments the
// bucket first and the count second, so a count read first is a lower
// bound on what the subsequent bucket sweep will see. Read the other
// way around, a concurrent recorder could leave the merge with
// count > sum(buckets), and the percentile walk would run off the end
// of the array with its tail targets unresolved (a torn merge the
// -race stress test pins).
func (m *Meter) latSnapshot(dst *[latBuckets]uint64) uint64 {
	if m == nil {
		return 0
	}
	count := m.lat.count.Load()
	for i := range dst {
		dst[i] += m.lat.buckets[i].Load()
	}
	return count
}

// latPercentiles walks an accumulated bucket array once, lifting the
// p50/p99/p999 bucket lower bounds.
func latPercentiles(buckets *[latBuckets]uint64, count uint64) LatencySummary {
	s := LatencySummary{Count: count}
	if count == 0 {
		return s
	}
	// Rank of the q-quantile in a population of count samples
	// (nearest-rank definition, 1-based).
	rank := func(q float64) uint64 {
		r := uint64(q * float64(count))
		if r < 1 {
			r = 1
		}
		return r
	}
	targets := [3]uint64{rank(0.50), rank(0.99), rank(0.999)}
	out := [3]*time.Duration{&s.P50, &s.P99, &s.P999}
	seen := uint64(0)
	next := 0
	for i := 0; i < latBuckets && next < len(targets); i++ {
		seen += buckets[i]
		for next < len(targets) && seen >= targets[next] {
			*out[next] = time.Duration(latValue(i))
			next++
		}
	}
	return s
}

// LatencyPercentiles summarizes every latency recorded so far.
func (m *Meter) LatencyPercentiles() LatencySummary {
	var buckets [latBuckets]uint64
	count := m.latSnapshot(&buckets)
	return latPercentiles(&buckets, count)
}

// ModelNanos converts an event snapshot into modelled time under p.
func (c Costs) ModelNanos(p CostParams) float64 {
	return float64(c.TEECrossings)*p.TEECrossNs +
		float64(c.GateCrossings)*p.GateCrossNs +
		float64(c.BytesCopied)*p.CopyByteNs +
		float64(c.Checks)*p.CheckNs +
		float64(c.Notifications)*p.NotifyNs +
		float64(c.CryptoBytes)*p.CryptoNs +
		float64(c.PagesShared)*p.SharePageNs +
		float64(c.PagesRevoked)*p.RevokeNs
}
