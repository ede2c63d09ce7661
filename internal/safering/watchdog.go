package safering

import (
	"errors"
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
var ErrStalled = errors.New("safering: host stalled (consumer index frozen with work pending)")

// WatchdogConfig tunes the host-progress watchdog.
type WatchdogConfig struct {
	// Interval is the background scan period (Start's goroutine).
	Interval time.Duration
	// StallAfter is how long the TX consumer index may stay frozen with
	// work pending before the host is declared stalled.
	StallAfter time.Duration
	// Clock supplies time for stall aging; nil means time.Now. The chaos
	// harness injects a fake clock and drives Poll directly.
	Clock func() time.Time
}

// DefaultWatchdogConfig returns conservative defaults: generous enough
// that a merely-slow host on a loaded machine is never declared stalled.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		Interval:   50 * time.Millisecond,
		StallAfter: 5 * time.Second,
		Clock:      time.Now,
	}
}

// wdState is the per-queue progress clock.
type wdState struct {
	lastCons  uint64    // consumer index at the previous scan
	obliged   bool      // host currently owes progress (work pending)
	obligedAt time.Time // when the current obligation started aging
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
	states []wdState
	stalls uint64

	scanner nic.Driver
}

// NewWatchdog builds a watchdog over the given devices without
// starting the background scanner; callers either Start it or drive
// Poll themselves (tests, the chaos harness).
func NewWatchdog(cfg WatchdogConfig, eps ...Watched) *Watchdog {
	def := DefaultWatchdogConfig()
	if cfg.Interval <= 0 {
		cfg.Interval = def.Interval
	}
	if cfg.StallAfter <= 0 {
		cfg.StallAfter = def.StallAfter
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return &Watchdog{
		cfg:    cfg,
		eps:    eps,
		states: make([]wdState, len(eps)),
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

// Start launches the background scanner: Poll every Interval. Stop joins
// it.
func (w *Watchdog) Start() { w.scanner.Go(nic.Every(w.cfg.Interval, w.Poll)) }

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
		st := &w.states[i]
		head, cons, alive := e.WatchProgress()
		if !alive {
			st.obliged = false
			continue
		}
		switch {
		case cons == head:
			// No obligation: the host consumed everything published.
			st.obliged = false
		case !st.obliged || cons != st.lastCons:
			// New obligation, or the host made progress: restart the clock.
			st.obliged, st.obligedAt = true, now
		case now.Sub(st.obligedAt) >= w.cfg.StallAfter:
			e.WatchStall(fmt.Errorf("%w: consumer frozen at %d (head %d) for %v",
				ErrStalled, cons, head, now.Sub(st.obligedAt)))
			w.stalls++
			st.obliged = false
		}
		st.lastCons = cons
	}
}
