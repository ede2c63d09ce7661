package safering

import (
	"fmt"
	"sync"
	"time"

	"confio/internal/nic"
)

// ErrStalled reports a host that stopped making progress while holding
// obligations: the guest published transmit work, rang the doorbell, and
// the host's consumer index stayed frozen past the configured deadline.
// A stall is fatal (the device fail-deads with ErrStalled as the cause)
// because a silently wedged host is indistinguishable from one sitting
// on the ring to study it — and because the alternative is guest
// goroutines blocked forever. Recovery, as for every death, is
// Reincarnate under quarantine.
//
// Only the TX direction carries an obligation the guest can watch: a
// quiet RXUsed ring is indistinguishable from a peer with no traffic to
// deliver, so RX silence is never a stall. Availability remains
// best-effort — the watchdog bounds *blocking*, not packet loss.
//
// It also matches nic.ErrStalled, and so nic.ErrClosed.
var ErrStalled = nic.Fatal("safering: host stalled (consumer index frozen with work pending)", nic.ErrStalled)

// WatchdogConfig tunes the host-progress watchdog.
type WatchdogConfig struct {
	// StallAfter is how long the TX consumer index may stay frozen with
	// work pending before the host is declared stalled. Start's scanner
	// polls every StallAfter/4.
	StallAfter time.Duration
	// Clock supplies time for stall aging; nil means time.Now. The chaos
	// harness injects a fake clock and drives Poll directly.
	Clock func() time.Time
}

// DefaultWatchdogConfig returns conservative defaults: generous enough
// that a merely-slow host on a loaded machine is never declared stalled.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		StallAfter: 5 * time.Second,
		Clock:      time.Now,
	}
}

// Aging is the one host-progress bound: it ages an obligation toward a
// stall by equality alone. A peer that owes progress and whose progress
// counter stands still for the bound is stalled; any change of the
// counter restarts the clock, so a slow peer that keeps moving is never
// stalled. The counter is only compared, never trusted, so it may be a
// word the peer writes. The zero value owes nothing.
type Aging struct {
	last    uint64    // progress counter at the previous observation
	obliged bool      // the peer owed progress at the previous observation
	since   time.Time // when the current obligation started aging
}

// Observe records one poll at now: owed says whether the peer owes
// progress, progress is its counter. It returns how long the counter has
// been frozen once that reaches after (positive) — a stall, after which
// the aging starts over — and 0 otherwise.
func (a *Aging) Observe(now time.Time, owed bool, progress uint64, after time.Duration) time.Duration {
	var frozen time.Duration
	switch {
	case !owed:
		a.obliged = false
	case !a.obliged || progress != a.last:
		// New obligation, or the peer made progress: restart the clock.
		a.obliged, a.since = true, now
	case now.Sub(a.since) >= after:
		frozen, a.obliged = now.Sub(a.since), false
	}
	a.last = progress
	return frozen
}

// Watched is anything the watchdog can age toward a stall: a producer
// ring whose peer owes progress. Every device class built on the generic
// ring engine implements it (the network Endpoint over its TX ring,
// blkring over its request ring), so one watchdog covers every boundary.
type Watched interface {
	// WatchProgress snapshots the private producer head and the shared
	// consumer index (equality-compared only by the watchdog — no trust
	// needed), and whether the device is still alive. Implementations
	// take their own lock.
	WatchProgress() (head, cons uint64, alive bool)
	// WatchStall fail-deads the device with the stall as cause and
	// meters the detection.
	WatchStall(err error)
}

// Watchdog watches one or more producer rings (the queues of one device,
// or several devices) for host stalls. It reads only two values per
// queue — the private head and the shared consumer index — and compares
// them for equality, so it trusts nothing the host writes: a garbage
// index is either "work pending" (ages toward a stall) or caught as a
// protocol violation by the next real operation.
type Watchdog struct {
	cfg WatchdogConfig
	eps []Watched

	mu     sync.Mutex
	ages   []Aging
	stalls uint64

	scanner nic.Driver
}

// NewWatchdog builds a watchdog over the given devices without
// starting the background scanner; callers either Start it or drive
// Poll themselves (tests, the chaos harness).
func NewWatchdog(cfg WatchdogConfig, eps ...Watched) *Watchdog {
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = DefaultWatchdogConfig().StallAfter
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Watchdog{
		cfg:  cfg,
		eps:  eps,
		ages: make([]Aging, len(eps)),
	}
}

// WatchDevice builds a watchdog over every queue of a multi-queue
// device. One stalled queue fail-deads the whole device through the
// shared Life, exactly like any other violation.
func WatchDevice(cfg WatchdogConfig, m *MultiEndpoint) *Watchdog {
	eps := make([]Watched, len(m.queues))
	for i, q := range m.queues {
		eps[i] = q
	}
	return NewWatchdog(cfg, eps...)
}

// WatchProgress implements Watched over the network endpoint's TX ring.
func (e *Endpoint) WatchProgress() (head, cons uint64, alive bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.life.Dead() != nil {
		return 0, 0, false
	}
	head = e.tx.Head()
	cons = e.sh.TX.Indexes().LoadCons() // equality-compared only: no trust needed
	return head, cons, true
}

// WatchStall implements Watched: the stall kills the endpoint and with
// it its whole device. Killing takes no queue lock.
func (e *Endpoint) WatchStall(err error) {
	e.fail(err)
	e.meter.Stall(1)
}

// Start launches the background scanner: Poll every StallAfter/4, so a
// stall is declared at most a quarter of the bound late. Stop joins it.
func (w *Watchdog) Start() { w.scanner.Go(nic.Every(w.cfg.StallAfter/4, w.Poll)) }

// Stop halts the background scanner and waits for it to exit. Safe to
// call more than once, and safe without Start.
func (w *Watchdog) Stop() { w.scanner.Stop() }

// Stalls reports how many stalls this watchdog has declared.
func (w *Watchdog) Stalls() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stalls
}

// Poll runs one scan over every watched queue, declaring a stall on any
// queue whose host owes progress and whose consumer index has not moved
// for StallAfter. Safe to call concurrently with datapath operations
// and with the background scanner.
func (w *Watchdog) Poll() {
	now := w.cfg.Clock()
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, e := range w.eps {
		head, cons, alive := e.WatchProgress()
		if frozen := w.ages[i].Observe(now, alive && cons != head, cons, w.cfg.StallAfter); frozen > 0 {
			e.WatchStall(fmt.Errorf("%w: consumer frozen at %d (head %d) for %v",
				ErrStalled, cons, head, frozen))
			w.stalls++
		}
	}
}
