package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
)

// Scenario is one scripted chaos run: a named fault played against a
// fresh device, classified into a terminal Outcome.
type Scenario struct {
	Name string
	Run  func() Result
}

// Scenarios returns the scripted single- and multi-queue fault runs.
// Every one of them must end in Absorbed, CleanEpoch, or FailDead.
func Scenarios() []Scenario {
	return []Scenario{
		{"index-corrupt", runIndexCorrupt},
		{"mid-batch-kill", runMidBatchKill},
		{"doorbell-flood", runDoorbellFlood},
		{"host-stall", runHostStall},
		{"notify-suppress-stall", runNotifySuppressStall},
		{"epoch-replay", runEpochReplay},
		{"reattach-storm", runReattachStorm},
		{"mq-cross-kill", func() Result { return runMQCrossKill("mq-cross-kill", NewMultiDevice(4)) }},
		{"mq-reattach-storm", func() Result { return runMQReattachStorm("mq-reattach-storm", NewMultiDevice(2)) }},
		{"blk-index-corrupt", runBlkIndexCorrupt},
		{"blk-host-stall", runBlkHostStall},
		{"blk-slow-host", runBlkSlowHost},
		{"blk-epoch-replay", runBlkEpochReplay},
		{"blk-mq-cross-kill", func() Result {
			d := NewBlkMultiDevice(4)
			defer d.detach()
			return runMQCrossKill("blk-mq-cross-kill", d)
		}},
		{"blk-mq-reattach-storm", func() Result {
			d := NewBlkMultiDevice(2)
			defer d.detach()
			return runMQReattachStorm("blk-mq-reattach-storm", d)
		}},
		{"tenant-flood", runTenantFlood},
		{"tenant-stall", runTenantStall},
		{"tenant-key-corrupt", runTenantKeyCorrupt},
		{"tenant-evict-storm", runTenantEvictStorm},
		{"cross-tenant-death", runCrossTenantDeath},
	}
}

// runIndexCorrupt: the host overclaims the receive producer index. The
// device must die, reincarnate cleanly, and the poisoned old window must
// be inert.
func runIndexCorrupt() Result {
	const fault = "index-corrupt"
	d := NewDevice(false)
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "healthy baseline failed: "+err.Error())
	}
	if err := d.Kill(); !errors.Is(err, safering.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("overclaim not fatal: %v", err))
	}
	if err := d.EP.Send(pattern(64, 1)); !errors.Is(err, safering.ErrDead) {
		return corrupt(fault, fmt.Sprintf("dead device still accepts sends: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	if err := d.ProbeOldWindows(); err != nil {
		return corrupt(fault, "old-window probe: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "overclaim fatal; fresh epoch verified; old window inert"})
}

// runMidBatchKill: the host consumes half a transmit batch, the guest
// reaps that progress, then the host rewinds the consumer index — a
// mid-batch protocol violation that must kill, then recover cleanly.
func runMidBatchKill() Result {
	const fault = "mid-batch-kill"
	d := NewDevice(false)
	frames := make([][]byte, 8)
	for i := range frames {
		frames[i] = pattern(128, byte(i)|1)
	}
	if n, err := d.EP.SendBatch(frames); n != len(frames) || err != nil {
		return corrupt(fault, fmt.Sprintf("batch setup: n=%d err=%v", n, err))
	}
	bufs := make([][]byte, 4)
	lens := make([]int, 4)
	for i := range bufs {
		bufs[i] = make([]byte, d.EP.Config().FrameCap())
	}
	if n, err := d.HP.PopBatch(bufs, lens); n != 4 || err != nil {
		return corrupt(fault, fmt.Sprintf("half pop: n=%d err=%v", n, err))
	}
	if err := d.EP.Reap(); err != nil {
		return corrupt(fault, "reap of honest progress failed: "+err.Error())
	}
	// The kill: rewind the consumer index below progress the guest saw.
	d.EP.Shared().TX.Indexes().StoreCons(1)
	if err := d.EP.Reap(); !errors.Is(err, safering.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("consumer rewind not fatal: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "mid-batch rewind fatal; un-reaped half abandoned with the old arena"})
}

// runDoorbellFlood: 10k spurious doorbell rings in each direction. Not a
// protocol violation — the device must absorb it and carry verified
// traffic on the original incarnation.
func runDoorbellFlood() Result {
	const fault = "doorbell-flood"
	d := NewDevice(true)
	for i := 0; i < 10000; i++ {
		d.EP.Shared().RXBell.Ring()
		d.EP.Shared().TXBell.Ring()
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "traffic after flood: "+err.Error())
	}
	if err := d.EP.Dead(); err != nil {
		return corrupt(fault, "flood killed the device: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: Absorbed,
		Detail: "doorbells coalesce; no state to corrupt, no death"})
}

// runHostStall: the guest publishes transmit work and the host freezes.
// The watchdog must declare the stall (fatal, ErrStalled), and recovery
// must produce a clean new epoch.
func runHostStall() Result {
	const fault = "host-stall"
	d := NewDevice(false)
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval:   time.Hour, // Poll-driven; the ticker never fires
		StallAfter: 5 * time.Second,
		Clock:      d.Clock.Now,
	}, d.EP)
	if err := d.EP.Send(pattern(256, 3)); err != nil {
		return corrupt(fault, "send setup: "+err.Error())
	}
	wd.Poll() // obligation observed, clock starts
	d.Clock.Advance(6 * time.Second)
	wd.Poll() // frozen past the deadline: stall declared
	derr := d.EP.Dead()
	if !errors.Is(derr, safering.ErrStalled) {
		return corrupt(fault, fmt.Sprintf("stall not declared: %v", derr))
	}
	if err := d.EP.Send(pattern(64, 4)); !errors.Is(err, safering.ErrDead) || !errors.Is(err, safering.ErrStalled) {
		return corrupt(fault, fmt.Sprintf("dead-op error lost the stall cause: %v", err))
	}
	if wd.Stalls() != 1 {
		return corrupt(fault, fmt.Sprintf("watchdog counted %d stalls, want 1", wd.Stalls()))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "frozen consumer index declared fatal; blocked work bounded"})
}

// runNotifySuppressStall: with event-idx suppression the host can elide
// every doorbell — so a host that suppresses and then freezes forever
// produces a guest that never rings and a host that never reaps. The
// watchdog must bound that silence exactly like an ordinary stall: the
// suppressed state shifts wake timing, never liveness accounting.
func runNotifySuppressStall() Result {
	const fault = "notify-suppress-stall"
	d := NewEventIdxDevice()
	// A live stack sits on the device throughout, idle and parked on the
	// RXUsed producer index. A frozen host never stores to it, so nothing
	// will ever poke the stack: it has to find the declared stall by its
	// bounded wait.
	stack := netstack.New(d.EP.NIC(), ipv4.Addr{10, 7, 0, 1})
	stack.Start()
	defer stack.Close()
	// Host withdraws the TX wake threshold (one suppress covers all
	// later publishes), then stops serving entirely.
	d.HP.SuppressTXNotify()
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval:   time.Hour, // Poll-driven; the ticker never fires
		StallAfter: 5 * time.Second,
		Clock:      d.Clock.Now,
	}, d.EP)
	if err := d.EP.Send(pattern(256, 3)); err != nil {
		return corrupt(fault, "send setup: "+err.Error())
	}
	// Suppression must have elided the bell: the obligation exists with
	// zero notifications on the wire.
	if c := d.Meter.Snapshot(); c.Notifications != 0 || c.NotifsSuppressed == 0 {
		return corrupt(fault, fmt.Sprintf(
			"suppressed publish rang %d bells (suppressed=%d), want 0 rings",
			c.Notifications, c.NotifsSuppressed))
	}
	wd.Poll() // obligation observed, clock starts
	d.Clock.Advance(6 * time.Second)
	wd.Poll() // still unserved past the deadline: stall declared
	if derr := d.EP.Dead(); !errors.Is(derr, safering.ErrStalled) {
		return corrupt(fault, fmt.Sprintf("stall not declared under suppression: %v", derr))
	}
	if wd.Stalls() != 1 {
		return corrupt(fault, fmt.Sprintf("watchdog counted %d stalls, want 1", wd.Stalls()))
	}
	if !await(func() bool { return errors.Is(stack.Degraded(), nic.ErrStalled) }) {
		return corrupt(fault, fmt.Sprintf("parked stack never noticed the declared stall: %v", stack.Degraded()))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "forever-suppression bounded by the watchdog; clean epoch after rebirth"})
}

// runEpochReplay: the host records a delivered descriptor, survives the
// device's death, and replays the recording into the reborn ring. The
// stale epoch tag must make the replay fatal — then a second admitted
// reincarnation must come back clean.
func runEpochReplay() Result {
	const fault = "epoch-replay"
	d := NewDevice(false)
	want := pattern(200, 9)
	if err := d.HP.Push(want); err != nil {
		return corrupt(fault, "push setup: "+err.Error())
	}
	recorded := d.EP.Shared().RXUsed.ReadDesc(0) // host's recording, epoch 0
	rx, err := d.EP.Recv()
	if err != nil {
		return corrupt(fault, fmt.Sprintf("delivery setup: %v", err))
	}
	ok := bytes.Equal(rx.Bytes(), want)
	rx.Release()
	if !ok {
		return corrupt(fault, "delivery setup: payload mismatch")
	}

	if err := d.Kill(); !errors.Is(err, safering.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("kill setup: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "first reincarnation refused: "+err.Error())
	}

	// The replay: the recorded epoch-0 descriptor enters the epoch-1 ring.
	d.EP.Shared().RXUsed.WriteDesc(0, recorded)
	d.EP.Shared().RXUsed.Indexes().StoreProd(1)
	if _, err := d.EP.Recv(); !errors.Is(err, safering.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("stale-epoch replay accepted: %v", err))
	}

	d.Clock.Advance(2 * time.Second) // serve the quarantine from death #2
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "second reincarnation refused: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "post-replay epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "epoch tag rejected the replayed descriptor fatally"})
}

// runReattachStorm: the host kills the device over and over, and the
// guest tries to reincarnate as fast as possible. The quarantine must
// throttle the storm (at least one ErrQuarantine) and the death budget
// must end it permanently — including after the budget window slides
// past the old deaths.
func runReattachStorm() Result {
	const fault = "reattach-storm"
	d := NewDevice(false)
	sawQuarantine := false
	budgetHit := false
	for round := 0; round < 20; round++ {
		if err := d.Kill(); !errors.Is(err, safering.ErrProtocol) {
			return corrupt(fault, fmt.Sprintf("round %d kill: %v", round, err))
		}
		err := d.Reincarnate()
		if errors.Is(err, safering.ErrQuarantine) {
			sawQuarantine = true
			d.Clock.Advance(2 * time.Second) // serve the backoff, retry
			err = d.Reincarnate()
		}
		if errors.Is(err, safering.ErrBudgetExhausted) {
			budgetHit = true
			break
		}
		if err != nil {
			return corrupt(fault, fmt.Sprintf("round %d reincarnate: %v", round, err))
		}
		if err := d.Verify(1); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d traffic: %v", round, err))
		}
	}
	if !sawQuarantine {
		return corrupt(fault, "storm was never quarantined (backoff not enforced)")
	}
	if !budgetHit {
		return corrupt(fault, "death budget never ended the storm")
	}
	// Permanence is sticky: even after the budget window slides past
	// every recorded death, the device must stay dead.
	d.Clock.Advance(10 * time.Minute)
	if err := d.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		return corrupt(fault, fmt.Sprintf("patient adversary waited the window out: %v", err))
	}
	if err := d.EP.Send(pattern(64, 5)); !errors.Is(err, safering.ErrDead) {
		return corrupt(fault, fmt.Sprintf("permanently dead device accepted a send: %v", err))
	}
	return d.counters(Result{Fault: fault, Outcome: FailDead,
		Detail: "backoff throttled the storm; budget exhaustion is permanent"})
}

// mqDevice is a multi-queue device class under chaos: what the mq
// scenarios need of the one fail-dead lifecycle (safering.Life),
// whichever ring class sits on it. The class's own error sentinels stay
// behind KillQueue and Refuses.
type mqDevice interface {
	Queues() int
	// KillQueue violates the protocol on queue q; nil means the guest
	// saw the class's fatal protocol error.
	KillQueue(q int) error
	// Refuses issues one operation on queue q; nil means it was refused
	// with the class's dead error.
	Refuses(q int) error
	// ReviveQueue attempts to reincarnate queue q alone.
	ReviveQueue(q int) error
	Epoch(q int) uint32
	// VerifyAll drives n rounds of patterned traffic through every queue.
	VerifyAll(n int) error
	// Reincarnate recovers the whole device and re-attaches its host side.
	Reincarnate() error
	clock() *Clock
	counters(Result) Result
}

// MultiDevice is a multi-queue chaos NIC: N queues behind one Life, with
// device-wide recovery.
type MultiDevice struct {
	Clock *Clock
	Bank  *platform.MeterBank
	M     *safering.MultiEndpoint
	HP    *safering.MultiHostPort
}

// NewMultiDevice builds a chaos device with the given queue count.
func NewMultiDevice(queues int) *MultiDevice {
	cfg := safering.DefaultConfig()
	clk := NewClock()
	bank := platform.NewMeterBank(queues)
	m, err := safering.NewMulti(cfg, queues, bank)
	if err != nil {
		panic(err)
	}
	m.SetRecoveryPolicy(Policy(clk))
	return &MultiDevice{
		Clock: clk,
		Bank:  bank,
		M:     m,
		HP:    safering.NewMultiHostPort(m.SharedQueues()),
	}
}

func (d *MultiDevice) Queues() int        { return d.M.Queues() }
func (d *MultiDevice) Epoch(q int) uint32 { return d.M.Queue(q).Epoch() }
func (d *MultiDevice) clock() *Clock      { return d.Clock }

// VerifyAll drives patterned traffic through every queue.
func (d *MultiDevice) VerifyAll(n int) error {
	for q := 0; q < d.M.Queues(); q++ {
		ep, hp := d.M.Queue(q), d.HP.Queue(q)
		buf := make([]byte, ep.Config().FrameCap())
		for i := 0; i < n; i++ {
			want := pattern(80+i, byte(q*16+i)|1)
			if err := ep.Send(want); err != nil {
				return fmt.Errorf("q%d tx %d: %w", q, i, err)
			}
			got, err := hp.Pop(buf)
			if err != nil || !bytes.Equal(buf[:got], want) {
				return fmt.Errorf("q%d tx %d corrupted (%v)", q, i, err)
			}
			if err := hp.Push(want); err != nil {
				return fmt.Errorf("q%d rx %d: %w", q, i, err)
			}
			rx, err := ep.Recv()
			if err != nil {
				return fmt.Errorf("q%d rx %d: %w", q, i, err)
			}
			ok := bytes.Equal(rx.Bytes(), want)
			rx.Release()
			if !ok {
				return fmt.Errorf("q%d rx %d corrupted", q, i)
			}
		}
	}
	if err := d.HP.Dead(); err != nil {
		return fmt.Errorf("honest guest poisoned the host model: %w", err)
	}
	return nil
}

// KillQueue violates the protocol on one queue (receive-index
// overclaim); the Life makes the whole device dead.
func (d *MultiDevice) KillQueue(q int) error {
	ep := d.M.Queue(q)
	ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	if _, err := ep.Recv(); !errors.Is(err, safering.ErrProtocol) {
		return fmt.Errorf("overclaim not fatal: %v", err)
	}
	return nil
}

// Refuses checks that queue q turns a send away as dead.
func (d *MultiDevice) Refuses(q int) error {
	if err := d.M.Queue(q).Send(pattern(64, byte(q)|1)); !errors.Is(err, safering.ErrDead) {
		return fmt.Errorf("send: %v", err)
	}
	return nil
}

// ReviveQueue asks one queue to reincarnate alone.
func (d *MultiDevice) ReviveQueue(q int) error {
	_, err := d.M.Queue(q).Reincarnate()
	return err
}

// Reincarnate recovers the whole device and attaches a fresh host port.
func (d *MultiDevice) Reincarnate() error {
	shs, err := d.M.Reincarnate()
	if err != nil {
		return err
	}
	d.HP = safering.NewMultiHostPort(shs)
	return nil
}

func (d *MultiDevice) counters(r Result) Result {
	c := d.Bank.Snapshot()
	r.Epoch = d.M.Queue(0).Epoch()
	r.Deaths, r.Reincarnations, r.Stalls = c.Deaths, c.Reincarnations, c.StallsDetected
	return r
}

// runMQCrossKill: one queue's violation must kill every queue (shared
// Life), per-queue recovery must be refused, and device-wide
// reincarnation must bring all queues back at the same new epoch.
func runMQCrossKill(fault string, d mqDevice) Result {
	if err := d.VerifyAll(1); err != nil {
		return corrupt(fault, "healthy baseline: "+err.Error())
	}
	if err := d.KillQueue(2); err != nil {
		return corrupt(fault, "queue kill: "+err.Error())
	}
	for q := 0; q < d.Queues(); q++ {
		if err := d.Refuses(q); err != nil {
			return corrupt(fault, fmt.Sprintf("queue %d survived a sibling violation: %v", q, err))
		}
	}
	// Per-queue resurrection must be structurally impossible.
	if err := d.ReviveQueue(0); !errors.Is(err, safering.ErrSiblings) {
		return corrupt(fault, fmt.Sprintf("a single queue of a multi device reincarnated alone: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "device-wide reincarnation refused: "+err.Error())
	}
	for q := 0; q < d.Queues(); q++ {
		if got := d.Epoch(q); got != 1 {
			return corrupt(fault, fmt.Sprintf("queue %d at epoch %d after rebirth, want 1", q, got))
		}
	}
	if err := d.VerifyAll(2); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "device-wide death, device-wide rebirth; per-queue revival refused"})
}

// runMQReattachStorm: the storm against a multi-queue device, rotating
// the killed queue. The shared budget must end it permanently.
func runMQReattachStorm(fault string, d mqDevice) Result {
	budgetHit := false
	for round := 0; round < 20; round++ {
		if err := d.KillQueue(round % 2); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d kill: %v", round, err))
		}
		d.clock().Advance(2 * time.Second)
		err := d.Reincarnate()
		if errors.Is(err, safering.ErrBudgetExhausted) {
			budgetHit = true
			break
		}
		if err != nil {
			return corrupt(fault, fmt.Sprintf("round %d reincarnate: %v", round, err))
		}
		if err := d.VerifyAll(1); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d traffic: %v", round, err))
		}
	}
	if !budgetHit {
		return corrupt(fault, "shared death budget never ended the storm")
	}
	for q := 0; q < d.Queues(); q++ {
		if err := d.Refuses(q); err != nil {
			return corrupt(fault, fmt.Sprintf("queue %d alive after budget exhaustion: %v", q, err))
		}
	}
	return d.counters(Result{Fault: fault, Outcome: FailDead,
		Detail: "rotating-queue storm hits the device-wide budget; permanently dead"})
}
