package attack

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"time"

	"confio/internal/ctls"
	"confio/internal/gateway"
	"confio/internal/safering"
)

// gatewayScenarios attack the multi-tenant gateway through both of its
// boundaries: a lying host underneath the shared ring, and a malicious
// *tenant* beside its neighbors — the fan-in threat model the
// single-tenant columns cannot express. The claims under test: a
// malicious tenant (or a host forging tenant identity) cannot read a
// neighbor's plaintext, cannot stall a neighbor's flows, and cannot
// kill a neighbor — the blast radius of every tenant-level attack is
// the attacker's own tenancy, and host-level violations keep their
// existing fail-dead verdict (loud device death, never corruption).
//
// Ring-level surfaces the gateway inherits unchanged from the safe ring
// (length lies, double fetches, stale memory) are covered by the
// safering columns it is built on and are not repeated here.
func gatewayScenarios() []Scenario {
	const tr = "gateway"
	return []Scenario{
		{AtkIndexOverclaim, tr, runGWIndexOverclaim},
		{AtkReplay, tr, runGWReplay},
		{AtkForgedHandle, tr, runGWForgedHandle},
		{AtkNotifStorm, tr, runGWFlood},
		{AtkTenantCrossRead, tr, runGWCrossRead},
		{AtkTenantStallNbr, tr, runGWStallNeighbor},
		{AtkTenantKillNbr, tr, runGWKillNeighbor},
	}
}

// newGWNode builds a gateway deployment with tight real-clock budgets
// (the attack harness, unlike chaos, runs on the wall clock).
func newGWNode(maxFlows int) (*gateway.Node, error) {
	return gateway.NewNode(gateway.NodeConfig{
		Queues: 2,
		Gateway: gateway.Config{
			Master:   []byte("attack-gateway-master-secret"),
			Tenants:  []gateway.TenantID{1, 2, 3},
			MaxFlows: maxFlows,
			TenantPolicy: safering.RecoveryPolicy{
				BaseBackoff:  time.Millisecond,
				MaxBackoff:   5 * time.Millisecond,
				DeathBudget:  2,
				BudgetWindow: time.Minute,
				Seed:         7,
			},
			StallTimeout: 150 * time.Millisecond,
		},
	})
}

func gwEcho(c io.ReadWriteCloser, seed byte, n int) error {
	for i := 0; i < n; i++ {
		want := frame(64+i, seed+byte(i))
		if _, err := c.Write(want); err != nil {
			return fmt.Errorf("write %d: %w", i, err)
		}
		got := make([]byte, len(want))
		if _, err := io.ReadFull(c, got); err != nil {
			return fmt.Errorf("read %d: %w", i, err)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("frame %d corrupted", i)
		}
	}
	return nil
}

// runGWIndexOverclaim: the host overclaims receive producer indexes on
// the gateway's shared ring. The whole device must fail-dead loudly —
// every tenant sees errors, none sees corrupted plaintext — exactly the
// layering claim: host-level violations keep the device-wide blast
// radius; per-tenant eviction never dilutes fail-dead.
func runGWIndexOverclaim() Result {
	const atk, tr = AtkIndexOverclaim, "gateway"
	n, err := newGWNode(8)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	c, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "baseline dial: "+err.Error())
	}
	defer c.Close()
	if err := gwEcho(c, 0x11, 2); err != nil {
		return compromised(atk, tr, "baseline traffic: "+err.Error())
	}

	// The lie: every queue's RX producer index claims slots*4 completions.
	mep := n.GatewayTransport()
	for q := 0; q < mep.Queues(); q++ {
		ep := mep.Queue(q)
		ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	}

	// Any guest receive poll now observes the violation. Drive traffic so
	// one happens: the gateway device must latch fail-dead, and the lie
	// must never surface as verified traffic.
	echoErr := make(chan error, 1)
	go func() { echoErr <- gwEcho(c, 0x22, 4) }()
	deadline := time.Now().Add(10 * time.Second)
	for mep.Dead() == nil {
		if time.Now().After(deadline) {
			return compromised(atk, tr, "device never declared the overclaim")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if !errors.Is(mep.Dead(), safering.ErrProtocol) {
		return compromised(atk, tr, fmt.Sprintf("death cause lost: %v", mep.Dead()))
	}
	// Give the degrading stack a moment to tear the flow down, then check
	// the lie never verified. A flow that merely hangs from the client's
	// side is fine — across the wire a dead device is indistinguishable
	// from a host dropping every packet, which it can always do.
	select {
	case err := <-echoErr:
		if err == nil {
			return compromised(atk, tr, "traffic verified through an overclaimed ring (lie unnoticed)")
		}
	case <-time.After(500 * time.Millisecond):
	}
	return blocked(atk, tr, "overclaim fail-deads the whole device; no tenant saw corrupted bytes")
}

// runGWReplay: an on-path host records one tenant's authenticated ctls
// record and replays it into the gateway's record layer. The implicit
// sequence number must make the replay fatal (ErrAuth), exactly as on
// the single-tenant dual boundary — per-tenant keys change who holds
// the secret, not the record-layer guarantees.
func runGWReplay() Result {
	const atk, tr = AtkReplay, "gateway"
	psk := gateway.TenantKey([]byte("attack-gateway-master-secret"), 1)
	a, b := newPipePair()
	hookReady := make(chan struct{})
	go func() {
		c, err := ctls.Client(a, psk, nil)
		if err != nil {
			return
		}
		<-hookReady
		c.Write([]byte("tenant record, once"))
	}()
	srv, err := ctls.Server(b, psk, nil)
	if err != nil {
		return compromised(atk, tr, "handshake failed unexpectedly")
	}
	var captured []byte
	a.mu.Lock()
	a.tamper = func(p []byte) []byte { captured = append([]byte{}, p...); return p }
	a.mu.Unlock()
	close(hookReady)
	buf := make([]byte, 64)
	n, err := srv.Read(buf)
	if err != nil || string(buf[:n]) != "tenant record, once" {
		return compromised(atk, tr, "legitimate record lost")
	}
	a.mu.Lock()
	a.tamper = nil
	a.inject(captured)
	a.mu.Unlock()
	if _, err := srv.Read(buf); !errors.Is(err, ctls.ErrAuth) {
		return compromised(atk, tr, "replayed tenant record accepted")
	}
	return blocked(atk, tr, "record replay dies at the per-tenant ctls layer (ErrAuth)")
}

// runGWForgedHandle: the tenant id in the hello is the gateway's
// handle, and anyone on the path can forge it. A storm of forged hellos
// for a victim id — more failures than the eviction budget tolerates —
// must arm backoff only: the victim keeps its tenancy, because
// unauthenticated faults never burn the sticky budget.
func runGWForgedHandle() Result {
	const atk, tr = AtkForgedHandle, "gateway"
	n, err := newGWNode(8)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	for i := 0; i < 5; i++ {
		c, err := n.DialRaw()
		if err != nil {
			return compromised(atk, tr, "raw dial: "+err.Error())
		}
		c.Write(gateway.EncodeHello(1))
		c.Write(frame(40, byte(i))) // junk where the ctls hello should be
		c.Read(make([]byte, 16))    // observe the cut
		c.Close()
		time.Sleep(15 * time.Millisecond) // clear the handshake backoff
	}
	if n.GW.TenantEvicted(1) {
		return compromised(atk, tr, "forged hellos evicted the victim tenant")
	}
	// The real key-holder is unharmed.
	c, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "victim locked out by forgery storm: "+err.Error())
	}
	defer c.Close()
	if err := gwEcho(c, 0x31, 3); err != nil {
		return compromised(atk, tr, "victim traffic broken: "+err.Error())
	}
	return blocked(atk, tr, "forged identity cannot pass the handshake or burn the victim's budget")
}

// runGWFlood: a tenant hammers the gateway with flows past its quota (a
// notification/connection storm at the flow level). The storm must be
// contained to the flooder — neighbors keep verified traffic — and cost
// the flooder its own budget, not the device's.
func runGWFlood() Result {
	const atk, tr = AtkNotifStorm, "gateway"
	n, err := newGWNode(1)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	nb, err := n.DialTenant(2)
	if err != nil {
		return compromised(atk, tr, "neighbor dial: "+err.Error())
	}
	defer nb.Close()

	hold, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "hold dial: "+err.Error())
	}
	defer hold.Close()
	for i := 0; i < 6; i++ {
		if c, err := n.DialTenant(1); err == nil {
			c.Write([]byte("x"))
			c.Read(make([]byte, 4))
			c.Close()
		}
		if err := gwEcho(nb, byte(0x41+i), 1); err != nil {
			return compromised(atk, tr, fmt.Sprintf("neighbor interrupted mid-storm: %v", err))
		}
		time.Sleep(15 * time.Millisecond)
	}
	if err := gwEcho(nb, 0x51, 2); err != nil {
		return compromised(atk, tr, "neighbor broken after storm: "+err.Error())
	}
	if dead := n.GatewayTransport().Dead(); dead != nil {
		return compromised(atk, tr, "flow storm killed the shared device: "+dead.Error())
	}
	return blocked(atk, tr, "flow storm contained to the flooder; neighbors and device unharmed")
}

// runGWCrossRead: a malicious tenant tries to enter a neighbor's
// session — handshaking under the neighbor's id with its own key (the
// only key it holds). Per-tenant key derivation must refuse it, and the
// neighbor's own traffic must stay verified: no cross-tenant read path
// exists above, and the per-tenant compartments deny one below.
func runGWCrossRead() Result {
	const atk, tr = AtkTenantCrossRead, "gateway"
	master := []byte("attack-gateway-master-secret")
	if bytes.Equal(gateway.TenantKey(master, 1), gateway.TenantKey(master, 2)) {
		return compromised(atk, tr, "two tenants derived the same key")
	}
	n, err := newGWNode(8)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	// Attacker = tenant 2, using its own key under the victim's id.
	if _, err := n.DialTenantKey(1, gateway.TenantKey(master, 2)); err == nil {
		return compromised(atk, tr, "attacker completed a handshake as the victim")
	}
	// And the honest victim is untouched by the attempt.
	time.Sleep(15 * time.Millisecond) // the failed handshake armed victim-id backoff
	c, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "victim locked out: "+err.Error())
	}
	defer c.Close()
	if err := gwEcho(c, 0x61, 3); err != nil {
		return compromised(atk, tr, "victim traffic broken: "+err.Error())
	}
	if n.GW.TenantEvicted(1) {
		return compromised(atk, tr, "impersonation attempt evicted the victim")
	}
	return blocked(atk, tr, "cross-tenant key confusion refused at the handshake; victim unharmed")
}

// runGWStallNeighbor: a malicious tenant stops draining its replies,
// trying to wedge the shared relay under everyone. The stall watchdog
// must shed the attacker's flow while a neighbor exchanges verified
// frames the whole time.
func runGWStallNeighbor() Result {
	const atk, tr = AtkTenantStallNbr, "gateway"
	n, err := newGWNode(8)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	nb, err := n.DialTenant(2)
	if err != nil {
		return compromised(atk, tr, "neighbor dial: "+err.Error())
	}
	defer nb.Close()

	st, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "staller dial: "+err.Error())
	}
	defer st.Close()
	deadline := time.Now().Add(5 * time.Second)
	for n.GW.TenantFlows(1) == 0 {
		if time.Now().After(deadline) {
			return compromised(atk, tr, "staller flow never registered")
		}
		time.Sleep(2 * time.Millisecond)
	}
	msg := make([]byte, 8<<10)
	go func() {
		for i := 0; i < 64; i++ {
			if _, err := st.Write(msg); err != nil {
				return
			}
		}
	}()
	for n.GW.TenantFlows(1) != 0 {
		if time.Now().After(deadline) {
			return compromised(atk, tr, "stalled flow never shed: the relay can be wedged")
		}
		if err := gwEcho(nb, 0x71, 1); err != nil {
			return compromised(atk, tr, "neighbor stalled by the attacker: "+err.Error())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := gwEcho(nb, 0x81, 2); err != nil {
		return compromised(atk, tr, "neighbor broken after shed: "+err.Error())
	}
	return blocked(atk, tr, "stalled flow shed by equality-only aging; neighbor flowed throughout")
}

// runGWKillNeighbor: a malicious tenant spends its entire fault budget
// as fast as it can, aiming to take the gateway (and its neighbors)
// down with it. It must achieve exactly its own sticky eviction:
// neighbors keep flowing and the device-wide death budget is untouched.
func runGWKillNeighbor() Result {
	const atk, tr = AtkTenantKillNbr, "gateway"
	n, err := newGWNode(1)
	if err != nil {
		return compromised(atk, tr, "setup: "+err.Error())
	}
	defer n.Close()
	nb, err := n.DialTenant(2)
	if err != nil {
		return compromised(atk, tr, "neighbor dial: "+err.Error())
	}
	defer nb.Close()

	hold, err := n.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "hold dial: "+err.Error())
	}
	defer hold.Close()
	deadline := time.Now().Add(10 * time.Second)
	for !n.GW.TenantEvicted(1) {
		if time.Now().After(deadline) {
			return compromised(atk, tr, "attacker never hit its budget (containment untested)")
		}
		if c, err := n.DialTenant(1); err == nil {
			c.Write([]byte("x"))
			c.Read(make([]byte, 4))
			c.Close()
		}
		time.Sleep(15 * time.Millisecond)
	}
	// The attacker is gone — stickily.
	if _, err := n.DialTenant(1); err == nil {
		return compromised(atk, tr, "evicted attacker re-admitted")
	}
	// The neighbors and the device are not.
	if err := gwEcho(nb, 0x91, 3); err != nil {
		return compromised(atk, tr, "neighbor died with the attacker: "+err.Error())
	}
	if dead := n.GatewayTransport().Dead(); dead != nil {
		return compromised(atk, tr, "attacker's eviction killed the device: "+dead.Error())
	}
	if _, err := n.GatewayTransport().Reincarnate(); !errors.Is(err, safering.ErrNotDead) {
		return compromised(atk, tr, fmt.Sprintf("device recovery state disturbed: %v", err))
	}
	if deaths := n.Bank.Snapshot().Deaths; deaths != 0 {
		return compromised(atk, tr, fmt.Sprintf("tenant eviction consumed %d device deaths", deaths))
	}
	return blocked(atk, tr, "suicidal tenant evicted alone; neighbors flow; device budget untouched")
}
