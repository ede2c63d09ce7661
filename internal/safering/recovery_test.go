package safering_test

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/simnet"
)

// fakeClock lets quarantine backoffs and watchdog deadlines elapse
// deterministically.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func testPolicy(clk *fakeClock, budget int) safering.RecoveryPolicy {
	return safering.RecoveryPolicy{
		BaseBackoff:  100 * time.Millisecond,
		MaxBackoff:   time.Second,
		JitterFrac:   0, // exact backoff arithmetic in tests
		DeathBudget:  budget,
		BudgetWindow: time.Minute,
		Clock:        clk.Now,
		Seed:         1,
	}
}

func killByOverclaim(t *testing.T, ep *safering.Endpoint) {
	t.Helper()
	ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	if _, err := ep.Recv(); !errors.Is(err, safering.ErrProtocol) {
		t.Fatalf("overclaim not fatal: %v", err)
	}
}

// TestReincarnateEpochLifecycle: death -> reincarnation bumps the epoch,
// the new incarnation stamps the epoch into every published descriptor,
// and traffic on the reborn device verifies end to end.
func TestReincarnateEpochLifecycle(t *testing.T) {
	meter := &platform.Meter{}
	ep, err := safering.New(safering.DefaultConfig(), meter)
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.Epoch(); got != 0 {
		t.Fatalf("first incarnation at epoch %d, want 0", got)
	}
	killByOverclaim(t, ep)
	sh, err := ep.Reincarnate()
	if err != nil {
		t.Fatal(err)
	}
	if got := ep.Epoch(); got != 1 {
		t.Fatalf("epoch %d after reincarnation, want 1", got)
	}
	want := []byte("epoch-1 frame")
	if err := ep.Send(want); err != nil {
		t.Fatal(err)
	}
	d := sh.TX.ReadDesc(0)
	if safering.KindCode(d.Kind) != safering.KindInline || safering.KindEpoch(d.Kind) != 1 {
		t.Fatalf("descriptor kind %#x: want code %d epoch 1", d.Kind, safering.KindInline)
	}
	hp := safering.NewHostPort(sh)
	buf := make([]byte, ep.Config().FrameCap())
	n, err := hp.Pop(buf)
	if err != nil || !bytes.Equal(buf[:n], want) {
		t.Fatalf("pop on new epoch: %v", err)
	}
	costs := meter.Snapshot()
	if costs.Deaths != 1 || costs.Reincarnations != 1 {
		t.Fatalf("meter deaths=%d reinc=%d, want 1/1", costs.Deaths, costs.Reincarnations)
	}
}

// TestReincarnateRefusesLiveEndpoint: rebirth is recovery, not reset.
func TestReincarnateRefusesLiveEndpoint(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ep.Reincarnate(); !errors.Is(err, safering.ErrNotDead) {
		t.Fatalf("got %v, want ErrNotDead", err)
	}
}

// TestQuarantineBackoffAndBudget walks the full policy state machine:
// immediate first admission, quarantine on a fast second death (with
// rejected attempts not consuming budget), admission after the backoff,
// permanent fail-dead once the budget is exhausted — sticky even after
// the budget window slides past every recorded death.
func TestQuarantineBackoffAndBudget(t *testing.T) {
	clk := newFakeClock()
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetRecoveryPolicy(testPolicy(clk, 2))

	killByOverclaim(t, ep)
	if _, err := ep.Reincarnate(); err != nil {
		t.Fatalf("first reincarnation should be immediate: %v", err)
	}

	killByOverclaim(t, ep)
	for i := 0; i < 5; i++ { // hammering the quarantine must not consume budget
		if _, err := ep.Reincarnate(); !errors.Is(err, safering.ErrQuarantine) {
			t.Fatalf("attempt %d inside backoff: got %v, want ErrQuarantine", i, err)
		}
	}
	clk.Advance(5 * time.Second)
	if _, err := ep.Reincarnate(); err != nil {
		t.Fatalf("reincarnation after backoff: %v", err)
	}

	killByOverclaim(t, ep)
	clk.Advance(5 * time.Second)
	if _, err := ep.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		t.Fatalf("third death within the window: got %v, want ErrBudgetExhausted", err)
	}
	// Sticky permanence: a patient adversary cannot wait the window out.
	clk.Advance(time.Hour)
	if _, err := ep.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		t.Fatalf("after window slid: got %v, want ErrBudgetExhausted", err)
	}
	if err := ep.Send(make([]byte, 64)); !errors.Is(err, safering.ErrDead) {
		t.Fatalf("permanently dead device accepted a send: %v", err)
	}
}

// TestDeadOpsPreserveCause: operations on a dead endpoint report both
// the generic death (ErrDead) and the original cause through errors.Is.
func TestDeadOpsPreserveCause(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	killByOverclaim(t, ep)
	serr := ep.Send(make([]byte, 64))
	if !errors.Is(serr, safering.ErrDead) || !errors.Is(serr, safering.ErrProtocol) {
		t.Fatalf("dead-op error lost identity: %v", serr)
	}
}

// TestDeathLatchKillConcurrentStable is the first-error-race regression:
// many queues dying simultaneously must all adopt the single latched
// cause, exactly one killer wins, and Dead() never changes. Run with
// -race.
func TestDeathLatchKillConcurrentStable(t *testing.T) {
	latch := &safering.DeathLatch{}
	const killers = 64
	causes := make([]error, killers)
	wins := make([]bool, killers)
	var wg sync.WaitGroup
	for i := 0; i < killers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			causes[i], wins[i] = latch.Kill(fmt.Errorf("killer %d", i), safering.ErrDead)
		}()
	}
	wg.Wait()
	final := latch.Dead()
	if final == nil {
		t.Fatal("latch not dead after 64 kills")
	}
	won := 0
	for i := 0; i < killers; i++ {
		if causes[i] != final {
			t.Fatalf("killer %d adopted %v, latch says %v", i, causes[i], final)
		}
		if wins[i] {
			won++
		}
	}
	if won != 1 {
		t.Fatalf("%d killers claim the CAS win, want exactly 1", won)
	}
	if latch.Dead() != final {
		t.Fatal("Dead() not stable")
	}
}

// TestMultiQueueConcurrentDeathsOneCause: the device-wide regression for
// the same race — every queue of a device killed simultaneously must
// report the identical cause the latch arbitrated, not its own.
func TestMultiQueueConcurrentDeathsOneCause(t *testing.T) {
	const queues = 4
	m, err := safering.NewMulti(safering.DefaultConfig(), queues, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for q := 0; q < queues; q++ {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			ep := m.Queue(q)
			ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
			ep.Recv()
		}()
	}
	wg.Wait()
	cause := m.Dead()
	if cause == nil {
		t.Fatal("device not dead")
	}
	for q := 0; q < queues; q++ {
		if got := m.Queue(q).Dead(); got != cause {
			t.Fatalf("queue %d reports %v, device cause is %v", q, got, cause)
		}
	}
}

// TestDoorbellSealSwallowsStaleRings covers a wait on a rung and on an
// unrung bell, and the sealing of old-incarnation bells.
func TestDoorbellSealSwallowsStaleRings(t *testing.T) {
	d := safering.NewDoorbell(nil)
	d.Ring()
	select {
	case <-d.Chan():
	default:
		t.Fatal("pending ring not delivered")
	}
	if d.TryWait() {
		t.Fatal("drained bell delivered a second wakeup")
	}
	d.Seal()
	for i := 0; i < 3; i++ {
		d.Ring() // stale: sealed bells swallow and count
	}
	if got := d.StaleRings(); got != 3 {
		t.Fatalf("stale rings %d, want 3", got)
	}
	select {
	case <-d.Chan():
		t.Fatal("sealed bell delivered a wakeup")
	default:
	}
}

// TestWatchdogDeclaresStall: published work plus a frozen consumer index
// past the deadline is a declared, fatal stall.
func TestWatchdogDeclaresStall(t *testing.T) {
	clk := newFakeClock()
	meter := &platform.Meter{}
	ep, err := safering.New(safering.DefaultConfig(), meter)
	if err != nil {
		t.Fatal(err)
	}
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval: time.Hour, StallAfter: 5 * time.Second, Clock: clk.Now,
	}, ep)
	if err := ep.Send(make([]byte, 128)); err != nil {
		t.Fatal(err)
	}
	wd.Poll() // obligation starts aging
	clk.Advance(4 * time.Second)
	wd.Poll() // not yet
	if ep.Dead() != nil {
		t.Fatal("stall declared before the deadline")
	}
	clk.Advance(2 * time.Second)
	wd.Poll()
	if derr := ep.Dead(); !errors.Is(derr, safering.ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", derr)
	}
	if wd.Stalls() != 1 {
		t.Fatalf("stall count %d, want 1", wd.Stalls())
	}
	if meter.Snapshot().StallsDetected != 1 {
		t.Fatal("meter did not count the stall")
	}
	if err := ep.Send(make([]byte, 64)); !errors.Is(err, safering.ErrStalled) || !errors.Is(err, safering.ErrDead) {
		t.Fatalf("dead-op error lost the stall cause: %v", err)
	}
}

// TestWatchdogHonorsProgress: a slow host that keeps moving is never
// declared stalled — progress restarts the clock.
func TestWatchdogHonorsProgress(t *testing.T) {
	clk := newFakeClock()
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := safering.NewHostPort(ep.Shared())
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval: time.Hour, StallAfter: 5 * time.Second, Clock: clk.Now,
	}, ep)
	for i := 0; i < 3; i++ {
		if err := ep.Send(make([]byte, 96)); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, ep.Config().FrameCap())
	wd.Poll()
	for i := 0; i < 3; i++ { // one frame every 4s: slow, but alive
		clk.Advance(4 * time.Second)
		if _, err := hp.Pop(buf); err != nil {
			t.Fatal(err)
		}
		wd.Poll()
		if ep.Dead() != nil {
			t.Fatalf("slow-but-live host declared stalled at step %d", i)
		}
	}
	clk.Advance(time.Hour) // drained: no obligation, no stall
	wd.Poll()
	if ep.Dead() != nil {
		t.Fatal("idle device declared stalled")
	}
	if wd.Stalls() != 0 {
		t.Fatalf("stalls %d, want 0", wd.Stalls())
	}
}

// TestWatchdogBackgroundScanner exercises the Start/Stop goroutine path
// with real time: a frozen host is declared stalled without any Poll
// calls from the test.
func TestWatchdogBackgroundScanner(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval: time.Millisecond, StallAfter: 20 * time.Millisecond,
	}, ep)
	wd.Start()
	defer wd.Stop()
	if err := ep.Send(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ep.Dead() == nil {
		if time.Now().After(deadline) {
			t.Fatal("background scanner never declared the stall")
		}
		time.Sleep(time.Millisecond)
	}
	if !errors.Is(ep.Dead(), safering.ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", ep.Dead())
	}
	wd.Stop() // idempotent
}

// waitRunning polls a goroutine gauge to zero.
func waitRunning(t *testing.T, name string, gauge func() int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for gauge() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%s goroutines leaked: %d still running", name, gauge())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPumpCollectsItselfOnDeath: a fail-deaded backend must collect the
// single-queue pump goroutine without Stop (the goroutine-leak audit of
// the teardown paths).
func TestPumpCollectsItselfOnDeath(t *testing.T) {
	ep, err := safering.New(safering.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New()
	pump := nic.StartPump(safering.NewHostPort(ep.Shared()).NIC(), net.NewPort())
	t.Cleanup(pump.Stop)
	// A guest-side protocol violation (transmit-index overclaim) poisons
	// the host port; the pump must observe ErrClosed and exit.
	ep.Shared().TX.Indexes().StoreProd(1 << 40)
	waitRunning(t, "pump", pump.Running)
}

// TestMultiPumpRestartAfterDeath is the restart drill end to end: kill a
// multi-queue device, confirm every per-queue pump goroutine exits, fill
// the poisoned arena with a canary, reincarnate, attach a fresh host and
// pump, verify traffic on the new epoch — and then prove no goroutine
// ever touched the old arena again.
func TestMultiPumpRestartAfterDeath(t *testing.T) {
	const queues = 2
	m, err := safering.NewMulti(safering.DefaultConfig(), queues, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m.SetRecoveryPolicy(testPolicy(clk, 8))
	net := simnet.New()
	oldShs := m.SharedQueues()
	mhp := safering.NewMultiHostPort(oldShs)
	pump := nic.StartMultiPump(mhp.HostNICs(), net.NewPort())
	t.Cleanup(pump.Stop)

	// Kill both sides: the guest violates TX toward the host (pump
	// goroutines must observe it and exit), and the host violates RX
	// toward the guest (so the guest endpoint is dead and eligible for
	// reincarnation).
	oldShs[0].TX.Indexes().StoreProd(1 << 40)
	killByOverclaim(t, m.Queue(1))
	if m.Dead() == nil {
		t.Fatal("device not dead")
	}
	waitRunning(t, "multipump", pump.Running)

	// Poison the old arena with a canary before rebirth.
	canary := bytes.Repeat([]byte{0xC9}, 512)
	for _, sh := range oldShs {
		sh.TX.Slots().WriteAt(canary, 0)
		sh.RXUsed.Slots().WriteAt(canary, 0)
	}

	shs, err := m.Reincarnate()
	if err != nil {
		t.Fatal(err)
	}
	mhp2 := safering.NewMultiHostPort(shs)
	pump2 := nic.StartMultiPump(mhp2.HostNICs(), net.NewPort())
	t.Cleanup(pump2.Stop)

	// Traffic flows on the new epoch: the new pump must consume every
	// queue's frame, returning its transmit ring to cons == head.
	for q := 0; q < queues; q++ {
		if err := m.Queue(q).Send(bytes.Repeat([]byte{byte(q + 1)}, 200)); err != nil {
			t.Fatalf("queue %d send after rebirth: %v", q, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for q := 0; q < queues; q++ {
		for {
			head, cons, alive := m.Queue(q).WatchProgress()
			if !alive {
				t.Fatalf("queue %d died after rebirth: %v", q, m.Dead())
			}
			if head == 1 && cons == head {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("queue %d after rebirth: head %d, cons %d; the new pump never consumed its frame", q, head, cons)
			}
			time.Sleep(time.Millisecond)
		}
	}
	pump2.Stop()

	// The canary in the old arena must be untouched: nothing wrote to
	// the poisoned incarnation after the restart.
	got := make([]byte, len(canary))
	for i, sh := range oldShs {
		sh.TX.Slots().ReadAt(got, 0)
		if !bytes.Equal(got, canary) {
			t.Fatalf("old TX arena of queue %d was touched after reincarnation", i)
		}
		sh.RXUsed.Slots().ReadAt(got, 0)
		if !bytes.Equal(got, canary) {
			t.Fatalf("old RX arena of queue %d was touched after reincarnation", i)
		}
	}
}
