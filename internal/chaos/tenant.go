package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/gateway"
	"confio/internal/safering"
)

// Tenant-isolation chaos: the scenarios in this file play one hostile
// or broken tenant against a live multi-tenant gateway and assert the
// containment contract — the faulty tenant ends CleanEpoch (recovers
// after backoff) or Evicted (sticky, budget exhausted), every *other*
// tenant's traffic continues uninterrupted with zero drops, zero
// evictions and zero corrupted frames, and no tenant fault ever touches
// the device-wide death budget underneath.

const (
	victimID   gateway.TenantID = 1
	neighborID gateway.TenantID = 2
	bystander  gateway.TenantID = 3
)

// GatewayMaster is the tenant world's master secret, from which the
// gateway derives every tenant's key (gateway.TenantKey).
var GatewayMaster = []byte("chaos-gateway-master-secret")

// TenantWorld is one gateway deployment under tenant chaos: the full
// Node testbed (multi-queue EventIdx ring, netstack, gateway) with the
// fake clock driving every tenant-containment timer. The gateway runs
// no stall poller of its own: scripts call PollStalls between clock
// jumps.
type TenantWorld struct {
	Clock *Clock
	Node  *gateway.Node
}

// NewTenantWorld builds a deployment of three tenants, two flows each,
// a 5-s stall timeout and Policy's fault budget. Callers close its Node.
func NewTenantWorld() *TenantWorld {
	clk := NewClock()
	n, err := gateway.NewNode(gateway.NodeConfig{
		Queues: 2,
		Gateway: gateway.Config{
			Master:       GatewayMaster,
			Tenants:      []gateway.TenantID{victimID, neighborID, bystander},
			MaxFlows:     2,
			StallTimeout: 5 * time.Second,
			Clock:        clk.Now,
			TenantPolicy: Policy(clk),
		},
	})
	if err != nil {
		panic(err) // deployment-fixed config: cannot fail
	}
	return &TenantWorld{Clock: clk, Node: n}
}

// EchoVerify drives n patterned request/response frames over c and
// checks every byte.
func EchoVerify(c io.ReadWriteCloser, id gateway.TenantID, n int) error {
	for i := 0; i < n; i++ {
		want := pattern(64+i, byte(uint64(id)*16+uint64(i))|1)
		if _, err := c.Write(want); err != nil {
			return fmt.Errorf("tenant %d write %d: %w", id, i, err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			return fmt.Errorf("tenant %d read %d: %w", id, i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("tenant %d frame %d corrupted in flight", id, i)
		}
	}
	return nil
}

// verifyTenant opens a fresh flow as id and echo-verifies n frames.
func (w *TenantWorld) verifyTenant(id gateway.TenantID, n int) error {
	c, err := w.Node.DialTenant(id)
	if err != nil {
		return fmt.Errorf("tenant %d dial: %w", id, err)
	}
	defer c.Close()
	return EchoVerify(c, id, n)
}

// neighborsClean asserts the non-faulty tenants carried verified
// traffic and were never charged for the victim's fault.
func (w *TenantWorld) neighborsClean(fault string) *Result {
	for _, id := range []gateway.TenantID{neighborID, bystander} {
		if err := w.verifyTenant(id, 3); err != nil {
			r := corrupt(fault, "neighbor traffic interrupted: "+err.Error())
			return &r
		}
		cs := w.Node.Tb.Tenant(uint64(id))
		if cs.Drops != 0 || cs.Evictions != 0 {
			r := corrupt(fault, fmt.Sprintf("tenant %d charged for a neighbor's fault: drops=%d evict=%d", id, cs.Drops, cs.Evictions))
			return &r
		}
	}
	return nil
}

// deviceClean asserts the tenant fault never reached the device-wide
// fail-dead machinery: the shared ring is alive, refuses a rebirth it
// does not need, and has zero deaths.
func (w *TenantWorld) deviceClean(fault string) *Result {
	if dead := w.Node.GatewayTransport().Dead(); dead != nil {
		r := corrupt(fault, "tenant fault killed the shared device: "+dead.Error())
		return &r
	}
	if _, err := w.Node.GatewayTransport().Reincarnate(); !errors.Is(err, safering.ErrNotDead) {
		r := corrupt(fault, fmt.Sprintf("device recovery state disturbed: %v", err))
		return &r
	}
	if deaths := w.Node.Bank.Snapshot().Deaths; deaths != 0 {
		r := corrupt(fault, fmt.Sprintf("tenant fault consumed %d device deaths, want 0", deaths))
		return &r
	}
	return nil
}

func (w *TenantWorld) counters(r Result) Result {
	c := w.Node.Bank.Snapshot()
	r.Deaths, r.Reincarnations, r.Stalls = c.Deaths, c.Reincarnations, c.StallsDetected
	return r
}

// The gateway registers, charges and drops flows on its own goroutines,
// after the client's side of the same event: a dial returns before the
// flow is registered, a cut is seen before it is charged, a close returns
// before the flow is dropped. The scenarios therefore wait (wall clock,
// bounded) for the gateway state they are about to build on or advance
// the fake clock past, instead of assuming the client saw it last.

// AwaitFlows waits until the gateway holds exactly n live flows for id.
func (w *TenantWorld) AwaitFlows(id gateway.TenantID, n int) bool {
	return Await(func() bool { return w.Node.GW.TenantFlows(id) == n })
}

// AwaitCharge waits until the gateway has counted a drop against id
// beyond drops. Every fault is counted after it is charged, so the
// backoff it armed is in place when this returns true.
func (w *TenantWorld) AwaitCharge(id gateway.TenantID, drops uint64) bool {
	return Await(func() bool { return w.Node.Tb.Tenant(uint64(id)).Drops > drops })
}

// Await polls cond on the wall clock until it holds, for at most 5 s.
func Await(cond func() bool) bool {
	for deadline := time.Now().Add(5 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// FloodOnce opens one authenticated flow as id on top of a full quota;
// the breach is the flood fault. It returns once the gateway has charged
// the breach, so a Clock.Advance that follows cannot overtake the charge
// and leave the next flood inside this one's backoff.
func (w *TenantWorld) FloodOnce(id gateway.TenantID) {
	drops := w.Node.Tb.Tenant(uint64(id)).Drops
	if c, err := w.Node.DialTenant(id); err == nil {
		// The handshake succeeds; the quota refusal cuts the flow — the
		// first exchange observes it.
		c.Write([]byte("x"))
		buf := make([]byte, 4)
		c.Read(buf)
		c.Close()
	}
	w.AwaitCharge(id, drops)
}

// runTenantFlood: one tenant breaches its flow quota. The breach is
// shed and charged (backoff), the budget survives, neighbors never
// notice, and the flooder recovers on a fresh flow after the backoff —
// the tenant-scoped CleanEpoch.
func runTenantFlood() Result {
	const fault = "tenant-flood"
	w := NewTenantWorld()
	defer w.Node.Close()
	if err := w.verifyTenant(victimID, 2); err != nil {
		return corrupt(fault, "healthy baseline: "+err.Error())
	}
	if !w.AwaitFlows(victimID, 0) {
		return corrupt(fault, "baseline flow never dropped")
	}

	// Fill the quota, then breach it.
	h1, err := w.Node.DialTenant(victimID)
	if err != nil {
		return corrupt(fault, "hold 1: "+err.Error())
	}
	defer h1.Close()
	h2, err := w.Node.DialTenant(victimID)
	if err != nil {
		return corrupt(fault, "hold 2: "+err.Error())
	}
	defer h2.Close()
	if !w.AwaitFlows(victimID, 2) {
		return corrupt(fault, "held flows never registered")
	}
	w.FloodOnce(victimID)

	if w.Node.Tb.Tenant(uint64(victimID)).Drops == 0 {
		return corrupt(fault, "flood breach not charged to the flooder")
	}
	if w.Node.GW.TenantEvicted(victimID) {
		return corrupt(fault, "a single quota breach evicted the tenant")
	}
	if r := w.neighborsClean(fault); r != nil {
		return *r
	}
	// Held flows keep working through the fault — shedding is for the
	// breach, not collective punishment.
	if err := EchoVerify(h1, victimID, 2); err != nil {
		return corrupt(fault, "held flow broken by the breach: "+err.Error())
	}
	// After the backoff the flooder admits fresh flows again.
	h2.Close()
	if !w.AwaitFlows(victimID, 1) {
		return corrupt(fault, "closed flow never dropped")
	}
	w.Clock.Advance(2 * time.Second)
	if err := w.verifyTenant(victimID, 3); err != nil {
		return corrupt(fault, "flooder never recovered: "+err.Error())
	}
	if r := w.deviceClean(fault); r != nil {
		return *r
	}
	return w.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "quota breach shed and charged; neighbors untouched; flooder back after backoff"})
}

// TenantStall: a tenant stops draining its replies. The equality-only
// stall watchdog sheds the flow (never wedging the shared pump), the
// shed is charged as one fault, a neighbor's held flow echoes on every
// round of the stall, and the staller reconnects cleanly after backoff.
func TenantStall() Result {
	const fault = "tenant-stall"
	w := NewTenantWorld()
	defer w.Node.Close()
	nb, err := w.Node.DialTenant(neighborID)
	if err != nil {
		return corrupt(fault, "neighbor dial: "+err.Error())
	}
	defer nb.Close()
	if err := EchoVerify(nb, neighborID, 2); err != nil {
		return corrupt(fault, "healthy baseline: "+err.Error())
	}

	st, err := w.Node.DialTenant(victimID)
	if err != nil {
		return corrupt(fault, "staller dial: "+err.Error())
	}
	defer st.Close()
	// Registration happens server-side after the handshake; wait for the
	// flow to exist before stalling it, or the shed loop below would
	// mistake not-yet-registered for already-shed.
	if !w.AwaitFlows(victimID, 1) {
		return corrupt(fault, "staller flow never registered")
	}
	// Submit a pile of requests and never read a reply: the reply path
	// fills the flow's window and the relay's write blocks.
	msg := make([]byte, 8<<10)
	go func() {
		for i := 0; i < 64; i++ {
			if _, err := st.Write(msg); err != nil {
				return
			}
		}
	}()

	shed := false
	for i := 0; i < 500; i++ {
		// Two polls bracket one fake-clock jump past StallTimeout: the
		// first observes the progress counter, the second sees equality
		// held across the deadline.
		w.Node.GW.PollStalls()
		w.Clock.Advance(6 * time.Second)
		w.Node.GW.PollStalls()
		if err := EchoVerify(nb, neighborID, 1); err != nil {
			return corrupt(fault, fmt.Sprintf("neighbor stalled in round %d: %v", i, err))
		}
		if w.Node.GW.TenantFlows(victimID) == 0 {
			shed = true
			break
		}
		time.Sleep(5 * time.Millisecond) // let the relay reach the blocked write
	}
	if !shed {
		return corrupt(fault, "stalled flow never shed (pump would wedge)")
	}
	if w.Node.Tb.Tenant(uint64(victimID)).Drops == 0 {
		return corrupt(fault, "shed not charged to the staller")
	}
	if r := w.neighborsClean(fault); r != nil {
		return *r
	}
	if w.Node.GW.TenantEvicted(victimID) {
		return corrupt(fault, "one stall evicted the tenant (budget is 4)")
	}
	w.Clock.Advance(2 * time.Second)
	if err := w.verifyTenant(victimID, 3); err != nil {
		return corrupt(fault, "staller never recovered: "+err.Error())
	}
	if r := w.deviceClean(fault); r != nil {
		return *r
	}
	return w.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "equality-only aging shed the stalled flow; neighbors flowed; staller back after backoff"})
}

// runTenantKeyCorrupt: a tenant (or an imposter — the gateway cannot
// tell) handshakes with a wrong key, more times than the eviction
// budget would tolerate. Handshake failures are unauthenticated and
// must only arm backoff: the eviction budget stays untouched and the
// real key recovers the tenant.
func runTenantKeyCorrupt() Result {
	const fault = "tenant-key-corrupt"
	w := NewTenantWorld()
	defer w.Node.Close()
	bad := bytes.Repeat([]byte{0x42}, 32)
	for i := 0; i < 6; i++ { // 6 > the eviction budget of 4
		drops := w.Node.Tb.Tenant(uint64(victimID)).Drops
		if _, err := w.Node.DialTenantKey(victimID, bad); err == nil {
			return corrupt(fault, "handshake with a corrupt key succeeded")
		}
		if !w.AwaitCharge(victimID, drops) {
			return corrupt(fault, "failed handshake never charged to the claimed id")
		}
		w.Clock.Advance(2 * time.Second) // clear the handshake backoff
	}
	if w.Node.GW.TenantEvicted(victimID) {
		return corrupt(fault, "unauthenticated handshake failures evicted the tenant (forged-hello kill switch)")
	}
	if got := w.Node.Tb.Tenant(uint64(victimID)).Evictions; got != 0 {
		return corrupt(fault, fmt.Sprintf("eviction budget burned by handshake failures: evictions=%d", got))
	}
	if r := w.neighborsClean(fault); r != nil {
		return *r
	}
	if err := w.verifyTenant(victimID, 3); err != nil {
		return corrupt(fault, "correct key refused after corrupt-key storm: "+err.Error())
	}
	if r := w.deviceClean(fault); r != nil {
		return *r
	}
	return w.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "wrong-key storm armed backoff only; budget untouched; real key recovered"})
}

// runTenantEvictStorm: a tenant floods past its fault budget. Eviction
// must trigger exactly once, shed every held flow, be sticky across any
// amount of elapsed time, and consume nothing from the device-wide
// death budget.
func runTenantEvictStorm() Result {
	const fault = "tenant-evict-storm"
	w := NewTenantWorld()
	defer w.Node.Close()

	h1, err := w.Node.DialTenant(victimID)
	if err != nil {
		return corrupt(fault, "hold 1: "+err.Error())
	}
	defer h1.Close()
	h2, err := w.Node.DialTenant(victimID)
	if err != nil {
		return corrupt(fault, "hold 2: "+err.Error())
	}
	defer h2.Close()
	if !w.AwaitFlows(victimID, 2) {
		return corrupt(fault, "held flows never registered")
	}

	for i := 0; i < 10 && !w.Node.GW.TenantEvicted(victimID); i++ {
		w.FloodOnce(victimID)
		w.Clock.Advance(2 * time.Second) // serve each fault's backoff
	}
	if !w.Node.GW.TenantEvicted(victimID) {
		return corrupt(fault, "fault budget never ended the flood storm")
	}
	// Eviction sheds the held flows too — the evicted tenant holds
	// nothing open on the gateway.
	if !w.AwaitFlows(victimID, 0) {
		return corrupt(fault, "evicted tenant still holds live flows")
	}
	if got := w.Node.Tb.Tenant(uint64(victimID)).Evictions; got != 1 {
		return corrupt(fault, fmt.Sprintf("evictions=%d, want exactly 1 (sticky, charged once)", got))
	}
	// Stickiness: a patient flooder cannot wait the budget window out.
	w.Clock.Advance(10 * time.Minute)
	if _, err := w.Node.DialTenant(victimID); err == nil {
		return corrupt(fault, "evicted tenant re-admitted after the budget window slid")
	}
	if r := w.neighborsClean(fault); r != nil {
		return *r
	}
	if r := w.deviceClean(fault); r != nil {
		return *r
	}
	return w.counters(Result{Fault: fault, Outcome: Evicted,
		Detail: "flood storm exhausted the tenant budget; sticky eviction; device budget untouched"})
}

// CrossTenantDeath: the eviction storm again, but with a neighbor
// exchanging verified frames *concurrently* the whole way through — the
// strongest isolation claim: a tenant being driven all the way to
// sticky eviction costs its neighbors zero frames, zero drops, zero
// latency-of-death, while the shared device never blinks.
func CrossTenantDeath() Result {
	const fault = "cross-tenant-death"
	w := NewTenantWorld()
	defer w.Node.Close()

	nb, err := w.Node.DialTenant(neighborID)
	if err != nil {
		return corrupt(fault, "neighbor dial: "+err.Error())
	}
	defer nb.Close()

	// Concurrent neighbor load: echo-verify continuously until stopped.
	var stop atomic.Bool
	var echoes atomic.Uint64
	var nbErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			want := pattern(64+(i%32), byte(i)|1)
			if _, err := nb.Write(want); err != nil {
				nbErr = fmt.Errorf("write %d: %w", i, err)
				return
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(nb, got); err != nil {
				nbErr = fmt.Errorf("read %d: %w", i, err)
				return
			}
			if !bytes.Equal(got, want) {
				nbErr = fmt.Errorf("frame %d corrupted", i)
				return
			}
			echoes.Add(1)
		}
	}()

	// Drive the victim to sticky eviction under the neighbor's load.
	h1, err := w.Node.DialTenant(victimID)
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return corrupt(fault, "hold 1: "+err.Error())
	}
	defer h1.Close()
	h2, err := w.Node.DialTenant(victimID)
	if err != nil {
		stop.Store(true)
		wg.Wait()
		return corrupt(fault, "hold 2: "+err.Error())
	}
	defer h2.Close()
	if !w.AwaitFlows(victimID, 2) {
		stop.Store(true)
		wg.Wait()
		return corrupt(fault, "held flows never registered")
	}
	for i := 0; i < 10 && !w.Node.GW.TenantEvicted(victimID); i++ {
		w.FloodOnce(victimID)
		w.Clock.Advance(2 * time.Second)
	}
	evicted := w.Node.GW.TenantEvicted(victimID)

	// Let the neighbor demonstrably outlive the eviction, then stop.
	before := echoes.Load()
	deadline := time.Now().Add(5 * time.Second)
	for echoes.Load() < before+3 && nbErr == nil && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if !evicted {
		return corrupt(fault, "victim never evicted")
	}
	if _, err := w.Node.DialTenant(victimID); err == nil {
		return corrupt(fault, "evicted tenant re-admitted")
	}
	if nbErr != nil {
		return corrupt(fault, "neighbor traffic interrupted by the eviction: "+nbErr.Error())
	}
	if echoes.Load() <= before {
		return corrupt(fault, "neighbor made no progress after the eviction")
	}
	if cs := w.Node.Tb.Tenant(uint64(neighborID)); cs.Drops != 0 || cs.Evictions != 0 {
		return corrupt(fault, fmt.Sprintf("neighbor charged: drops=%d evict=%d", cs.Drops, cs.Evictions))
	}
	if r := w.neighborsClean(fault); r != nil { // bystander + fresh-flow checks
		return *r
	}
	if r := w.deviceClean(fault); r != nil {
		return *r
	}
	return w.counters(Result{Fault: fault, Outcome: Evicted,
		Detail: fmt.Sprintf("victim evicted under load; neighbor verified %d frames uninterrupted", echoes.Load())})
}
