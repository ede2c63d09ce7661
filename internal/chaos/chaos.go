// Package chaos is the fault-injection harness for the fail-dead
// recovery subsystem. It plays a hostile or broken host against live
// safering devices — scripted faults and seeded-random storms — and
// classifies what each device ends up as. The invariant under test is
// the recovery contract:
//
//	every fault ends in Absorbed, CleanEpoch, FailDead, or (for
//	tenant-scoped faults) Evicted — never live-but-corrupt.
//
// A device is allowed to shrug a fault off (Absorbed), to die and come
// back at a fresh epoch with verified traffic (CleanEpoch), or to die
// permanently with every operation failing loudly (FailDead). The
// tenant-isolation scenarios (tenant.go) add one more allowed terminal
// state: a single tenant stickily Evicted by the gateway while the
// device and every neighbor keep flowing. The one forbidden terminal
// state is Corrupt: a device that still claims to be alive while
// delivering wrong bytes, or one that recovers outside the quarantine
// policy.
//
// The package deliberately imports no testing machinery: the chaos_test
// suite drives it under `go test`, and cmd/cioattack reuses the same
// scenarios for its report.
package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"

	"confio/internal/platform"
	"confio/internal/safering"
)

// Outcome classifies a device's terminal state after a chaos scenario.
type Outcome string

const (
	// Absorbed: the fault never violated the protocol; the original
	// incarnation is still alive and traffic verifies.
	Absorbed Outcome = "absorbed"
	// CleanEpoch: the fault killed the device; reincarnation was
	// admitted and traffic verifies on the new epoch, with the old
	// window inert.
	CleanEpoch Outcome = "clean-epoch"
	// FailDead: the device is permanently dead (death budget exhausted
	// or quarantine held) and every operation fails loudly.
	FailDead Outcome = "fail-dead"
	// Evicted: a *tenant-scoped* terminal state — the faulty tenant's
	// fault budget is exhausted and it is stickily refused by the
	// gateway, while the device underneath stays alive and every other
	// tenant's traffic verifies uninterrupted. The tenant analogue of
	// FailDead, one containment layer up.
	Evicted Outcome = "evicted"
	// Corrupt is the forbidden state: live but wrong. Any scenario
	// returning it is a bug in the recovery subsystem.
	Corrupt Outcome = "CORRUPT"
)

// Result is the verdict of one chaos scenario.
type Result struct {
	Fault   string
	Outcome Outcome
	Detail  string
	// Epoch is the device epoch the scenario ended at.
	Epoch uint32
	// Deaths / Reincarnations / Stalls snapshot the recovery meters.
	Deaths, Reincarnations, Stalls uint64
}

func (r Result) String() string {
	return fmt.Sprintf("%-16s %-11s epoch=%d deaths=%d reinc=%d stalls=%d  %s",
		r.Fault, r.Outcome, r.Epoch, r.Deaths, r.Reincarnations, r.Stalls, r.Detail)
}

// Clock is an injectable fake clock so quarantine backoffs and watchdog
// deadlines elapse instantly and deterministically.
type Clock struct {
	mu sync.Mutex
	t  time.Time
}

// NewClock starts a fake clock at a fixed instant.
func NewClock() *Clock {
	return &Clock{t: time.Unix(1_700_000_000, 0)}
}

// Now returns the fake instant.
func (c *Clock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

// Advance moves the fake clock forward.
func (c *Clock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// Policy returns the tight quarantine policy chaos devices run under:
// small backoffs (the fake clock jumps over them), a 4-death budget per
// minute, and a fixed jitter seed for reproducibility.
func Policy(clk *Clock) safering.RecoveryPolicy {
	return safering.RecoveryPolicy{
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   time.Second,
		JitterFrac:   0.2,
		DeathBudget:  4,
		BudgetWindow: time.Minute,
		Clock:        clk.Now,
		Seed:         42,
	}
}

// Device is one single-queue safering device under chaos: the guest
// endpoint, the current host attachment, the fake clock driving its
// quarantine, and the poisoned windows of every prior incarnation (kept
// so scenarios can probe that they are inert).
type Device struct {
	Clock *Clock
	Meter *platform.Meter
	EP    *safering.Endpoint
	HP    *safering.HostPort
	// Old holds the shared windows of dead incarnations.
	Old []*safering.Shared
}

// NewDevice builds a chaos device. notify selects doorbell mode.
func NewDevice(notify bool) *Device {
	cfg := safering.DefaultConfig()
	cfg.Notify = notify
	return newDevice(cfg)
}

// NewEventIdxDevice builds a notify device with event-idx suppression
// enabled, for scenarios that stress the adaptive notification path.
func NewEventIdxDevice() *Device {
	cfg := safering.DefaultConfig()
	cfg.Notify = true
	cfg.EventIdx = true
	return newDevice(cfg)
}

func newDevice(cfg safering.DeviceConfig) *Device {
	clk := NewClock()
	meter := &platform.Meter{}
	ep, err := safering.New(cfg, meter)
	if err != nil {
		panic(err) // deployment-fixed config: cannot fail
	}
	ep.SetRecoveryPolicy(Policy(clk))
	return &Device{
		Clock: clk,
		Meter: meter,
		EP:    ep,
		HP:    safering.NewHostPort(ep.Shared()),
	}
}

// pattern builds a deterministic frame so both sides can verify content
// end to end.
func pattern(size int, seed byte) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = seed ^ byte(i*7)
	}
	return b
}

// Verify drives n patterned frames through each direction of the live
// device and checks every byte. Any mismatch or unexpected error is a
// corruption: the device claims to be alive but is wrong.
func (d *Device) Verify(n int) error {
	buf := make([]byte, d.EP.Config().FrameCap())
	for i := 0; i < n; i++ {
		want := pattern(64+i, byte(i)|1)
		if err := d.EP.Send(want); err != nil {
			return fmt.Errorf("tx send %d: %w", i, err)
		}
		got, err := d.HP.Pop(buf)
		if err != nil {
			return fmt.Errorf("tx pop %d: %w", i, err)
		}
		if !bytes.Equal(buf[:got], want) {
			return fmt.Errorf("tx frame %d corrupted in flight", i)
		}
		if err := d.EP.Reap(); err != nil {
			return fmt.Errorf("tx reap %d: %w", i, err)
		}

		want = pattern(96+i, byte(i)|2)
		if err := d.HP.Push(want); err != nil {
			return fmt.Errorf("rx push %d: %w", i, err)
		}
		rx, err := d.EP.Recv()
		if err != nil {
			return fmt.Errorf("rx recv %d: %w", i, err)
		}
		ok := bytes.Equal(rx.Bytes(), want)
		rx.Release()
		if !ok {
			return fmt.Errorf("rx frame %d corrupted in flight", i)
		}
	}
	// Distrust is mutual: verified traffic from an honest guest must not
	// have poisoned the honest host model either.
	if err := d.HP.Dead(); err != nil {
		return fmt.Errorf("honest guest poisoned the host port: %w", err)
	}
	return nil
}

// Kill makes the host violate the protocol (receive-index overclaim)
// and returns the fatal error the guest observed. The device is dead on
// return.
func (d *Device) Kill() error {
	d.EP.Shared().RXUsed.Indexes().StoreProd(uint64(d.EP.Config().Slots) * 4)
	_, err := d.EP.Recv()
	return err
}

// Reincarnate recovers the device through the quarantine and re-attaches
// a fresh host backend to the new window. The old window is retained for
// inertness probes.
func (d *Device) Reincarnate() error {
	old := d.EP.Shared()
	sh, err := d.EP.Reincarnate()
	if err != nil {
		return err
	}
	d.Old = append(d.Old, old)
	d.HP = safering.NewHostPort(sh)
	return nil
}

// ProbeOldWindows plays a host that kept the dead incarnations' windows:
// it scribbles descriptors into their rings, bumps their producer
// indexes, and rings their sealed doorbells. None of it may reach the
// live incarnation — Verify afterwards must still pass.
func (d *Device) ProbeOldWindows() error {
	for _, sh := range d.Old {
		sh.RXUsed.WriteDesc(0, safering.Desc{Len: 64, Kind: safering.KindInline})
		sh.RXUsed.Indexes().StoreProd(uint64(d.EP.Config().Slots) * 8)
		sh.TX.Indexes().StoreCons(uint64(d.EP.Config().Slots) * 8)
		if sh.RXBell != nil {
			sh.RXBell.Ring()
			if sh.RXBell.StaleRings() == 0 {
				return errors.New("stale doorbell ring on a sealed bell was not counted")
			}
		}
	}
	return d.Verify(2)
}

// counters fills the meter fields of a Result.
func (d *Device) counters(r Result) Result {
	c := d.Meter.Snapshot()
	r.Epoch = d.EP.Epoch()
	r.Deaths, r.Reincarnations, r.Stalls = c.Deaths, c.Reincarnations, c.StallsDetected
	return r
}

// corrupt builds the forbidden verdict.
func corrupt(fault, detail string) Result {
	return Result{Fault: fault, Outcome: Corrupt, Detail: detail}
}
