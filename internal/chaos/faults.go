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
		{"doorbell-flood", func() Result { return DoorbellFlood(NewDevice(notifyConfig(false))) }},
		{"host-stall", runHostStall},
		{"notify-suppress-stall", runNotifySuppressStall},
		{"epoch-replay", func() Result { return EpochReplay(NewDevice(safering.DefaultConfig())) }},
		{"reattach-storm", func() Result { return ReattachStorm("reattach-storm", NewDevice(safering.DefaultConfig())) }},
		{"mq-cross-kill", func() Result { return CrossKill("mq-cross-kill", NewMultiDevice(safering.DefaultConfig(), 4)) }},
		{"mq-reattach-storm", func() Result {
			return ReattachStorm("mq-reattach-storm", NewMultiDevice(safering.DefaultConfig(), 2))
		}},
		{"blk-index-corrupt", runBlkIndexCorrupt},
		{"blk-host-stall", runBlkHostStall},
		{"blk-slow-host", runBlkSlowHost},
		{"blk-epoch-replay", func() Result {
			d := NewBlkDevice(true)
			defer d.Detach()
			return BlkEpochReplay(d)
		}},
		{"blk-mq-cross-kill", func() Result {
			d := NewBlkMultiDevice(4)
			defer d.Detach()
			return CrossKill("blk-mq-cross-kill", d)
		}},
		{"blk-mq-reattach-storm", func() Result {
			d := NewBlkMultiDevice(2)
			defer d.Detach()
			return ReattachStorm("blk-mq-reattach-storm", d)
		}},
		{"tenant-flood", runTenantFlood},
		{"tenant-stall", TenantStall},
		{"tenant-key-corrupt", runTenantKeyCorrupt},
		{"tenant-evict-storm", runTenantEvictStorm},
		{"cross-tenant-death", CrossTenantDeath},
	}
}

// runIndexCorrupt: the host overclaims the receive producer index. The
// device must die, reincarnate cleanly, and the poisoned old window must
// be inert, its sealed doorbells included (the device notifies, so it
// has bells to seal).
func runIndexCorrupt() Result {
	const fault = "index-corrupt"
	d := NewDevice(notifyConfig(true))
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "healthy baseline failed: "+err.Error())
	}
	if err := d.KillQueue(0); err != nil {
		return corrupt(fault, err.Error())
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
	d := NewDevice(safering.DefaultConfig())
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

// DoorbellFlood: 10k spurious doorbell rings in each direction of queue
// 0. Not a protocol violation — the device must absorb it and carry
// verified traffic on every queue of the original incarnation. d runs
// with doorbells on.
func DoorbellFlood(d NIC) Result {
	const fault = "doorbell-flood"
	ep, _ := d.Queue(0)
	for i := 0; i < 10000; i++ {
		ep.Shared().RXBell.Ring()
		ep.Shared().TXBell.Ring()
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "traffic after flood: "+err.Error())
	}
	if err := ep.Dead(); err != nil {
		return corrupt(fault, "flood killed the device: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: Absorbed,
		Detail: "doorbells only charge; no state to corrupt, no death"})
}

// runHostStall: the guest publishes transmit work and the host freezes.
// The watchdog must declare the stall (fatal, ErrStalled), and recovery
// must produce a clean new epoch.
func runHostStall() Result {
	const fault = "host-stall"
	d := NewDevice(safering.DefaultConfig())
	wd := watchdog(d.Clock, d.EP)
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
	d := NewDevice(notifyConfig(true))
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
	wd := watchdog(d.Clock, d.EP)
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
	if !Await(func() bool { return errors.Is(stack.Degraded(), nic.ErrStalled) }) {
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

// EpochReplay: the host records a descriptor delivered on queue 0,
// survives the device's death, and replays the recording into the reborn
// ring. The stale epoch tag must make the replay fatal — then a second
// admitted reincarnation must come back clean.
func EpochReplay(d NIC) Result {
	const fault = "epoch-replay"
	ep, hp := d.Queue(0)
	want := pattern(200, 9)
	if err := hp.Push(want); err != nil {
		return corrupt(fault, "push setup: "+err.Error())
	}
	recorded := ep.Shared().RXUsed.ReadDesc(0) // host's recording, epoch 0
	rx, err := ep.Recv()
	if err != nil {
		return corrupt(fault, fmt.Sprintf("delivery setup: %v", err))
	}
	ok := bytes.Equal(rx.Bytes(), want)
	rx.Release()
	if !ok {
		return corrupt(fault, "delivery setup: payload mismatch")
	}

	if err := d.KillQueue(0); err != nil {
		return corrupt(fault, "kill setup: "+err.Error())
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "first reincarnation refused: "+err.Error())
	}

	// The replay: the recorded epoch-0 descriptor enters the epoch-1 ring.
	ep.Shared().RXUsed.WriteDesc(0, recorded)
	ep.Shared().RXUsed.Indexes().StoreProd(1)
	if _, err := ep.Recv(); !errors.Is(err, safering.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("stale-epoch replay accepted: %v", err))
	}

	d.clock().Advance(2 * time.Second) // serve the quarantine from death #2
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "second reincarnation refused: "+err.Error())
	}
	if err := d.Verify(4); err != nil {
		return corrupt(fault, "post-replay epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "epoch tag rejected the replayed descriptor fatally"})
}

// ReattachStorm: the host kills the device over and over, rotating the
// killed queue, and the guest reincarnates as fast as it may. The
// quarantine must throttle the storm (at least one ErrQuarantine) and the
// shared death budget must end it permanently — including after the
// budget window slides past the old deaths.
func ReattachStorm(fault string, d Rig) Result {
	sawQuarantine, budgetHit := false, false
	for round := 0; round < 20; round++ {
		if err := d.KillQueue(round % d.Queues()); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d kill: %v", round, err))
		}
		err := d.Reincarnate()
		for errors.Is(err, safering.ErrQuarantine) {
			sawQuarantine = true
			d.clock().Advance(2 * time.Second) // serve the backoff, retry
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
	d.clock().Advance(10 * time.Minute)
	if err := d.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		return corrupt(fault, fmt.Sprintf("patient adversary waited the window out: %v", err))
	}
	for q := 0; q < d.Queues(); q++ {
		if err := d.Refuses(q); err != nil {
			return corrupt(fault, fmt.Sprintf("queue %d alive after budget exhaustion: %v", q, err))
		}
	}
	return d.counters(Result{Fault: fault, Outcome: FailDead,
		Detail: "backoff throttled the storm; budget exhaustion is permanent"})
}

// Rig is a ring device under chaos, of either class and any queue count:
// what the recovery scripts need of the one fail-dead lifecycle
// (safering.Life). The class's own error sentinels stay behind KillQueue
// and Refuses.
type Rig interface {
	Queues() int
	// KillQueue violates the protocol on queue q; nil means the guest
	// saw the class's fatal protocol error.
	KillQueue(q int) error
	// Refuses issues one operation on queue q; nil means it was refused
	// with the class's dead error.
	Refuses(q int) error
	// Verify drives n rounds of patterned traffic through every queue.
	Verify(n int) error
	// Reincarnate recovers the whole device and re-attaches its host side.
	Reincarnate() error
	clock() *Clock
	counters(Result) Result
}

// MultiRig is a Rig of several queues, which must live and die as one.
type MultiRig interface {
	Rig
	// ReviveQueue attempts to reincarnate queue q alone.
	ReviveQueue(q int) error
	Epoch(q int) uint32
}

// NIC is a network Rig: the scripts that forge ring words reach each
// queue's guest endpoint and honest host port.
type NIC interface {
	Rig
	Queue(q int) (*safering.Endpoint, *safering.HostPort)
}

// MultiDevice is a multi-queue chaos NIC: N queues behind one Life, with
// device-wide recovery.
type MultiDevice struct {
	Clock *Clock
	Bank  *platform.MeterBank
	M     *safering.MultiEndpoint
	HP    *safering.MultiHostPort
}

// NewMultiDevice builds a chaos device of configuration cfg with the
// given queue count.
func NewMultiDevice(cfg safering.DeviceConfig, queues int) *MultiDevice {
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

func (d *MultiDevice) Queues() int           { return d.M.Queues() }
func (d *MultiDevice) Epoch(q int) uint32    { return d.M.Queue(q).Epoch() }
func (d *MultiDevice) KillQueue(q int) error { return overclaim(d.M.Queue(q)) }
func (d *MultiDevice) Refuses(q int) error   { return refuses(d.M.Queue(q)) }
func (d *MultiDevice) clock() *Clock         { return d.Clock }

func (d *MultiDevice) Queue(q int) (*safering.Endpoint, *safering.HostPort) {
	return d.M.Queue(q), d.HP.Queue(q)
}

// Verify drives patterned traffic through every queue.
func (d *MultiDevice) Verify(n int) error {
	for q := 0; q < d.M.Queues(); q++ {
		ep, hp := d.Queue(q)
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

// CrossKill: one queue's violation must kill every queue (shared Life),
// per-queue recovery must be refused, and device-wide reincarnation must
// bring all queues back at the same new epoch.
func CrossKill(fault string, d MultiRig) Result {
	if err := d.Verify(1); err != nil {
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
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "device-wide death, device-wide rebirth; per-queue revival refused"})
}
