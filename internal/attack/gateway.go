package attack

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"confio/internal/chaos"
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
		// A tenant that stalls, or spends its whole fault budget, is the
		// chaos lattice's tenant-stall and cross-tenant-death.
		{AtkTenantStallNbr, tr, func() Result { return fromChaos(AtkTenantStallNbr, tr, chaos.TenantStall()) }},
		{AtkTenantKillNbr, tr, func() Result { return fromChaos(AtkTenantKillNbr, tr, chaos.CrossTenantDeath()) }},
	}
}

// runGWIndexOverclaim: the host overclaims receive producer indexes on
// the gateway's shared ring. The whole device must fail-dead loudly —
// every tenant sees errors, none sees corrupted plaintext — exactly the
// layering claim: host-level violations keep the device-wide blast
// radius; per-tenant eviction never dilutes fail-dead.
func runGWIndexOverclaim() Result {
	const atk, tr = AtkIndexOverclaim, "gateway"
	w := chaos.NewTenantWorld()
	defer w.Node.Close()
	c, err := w.Node.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "baseline dial: "+err.Error())
	}
	defer c.Close()
	if err := chaos.EchoVerify(c, 1, 2); err != nil {
		return compromised(atk, tr, "baseline traffic: "+err.Error())
	}

	// The lie: every queue's RX producer index claims slots*4 completions.
	mep := w.Node.GatewayTransport()
	for q := 0; q < mep.Queues(); q++ {
		ep := mep.Queue(q)
		ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	}

	// Any guest receive poll now observes the violation. Drive traffic so
	// one happens: the gateway device must latch fail-dead, and the lie
	// must never surface as verified traffic.
	echoErr := make(chan error, 1)
	go func() { echoErr <- chaos.EchoVerify(c, 1, 4) }()
	if !chaos.Await(func() bool { return mep.Dead() != nil }) {
		return compromised(atk, tr, "device never declared the overclaim")
	}
	if !errors.Is(mep.Dead(), safering.ErrProtocol) {
		return compromised(atk, tr, fmt.Sprintf("death cause lost: %v", mep.Dead()))
	}
	// The dead device can carry no reply, so tearing the deployment down
	// ends the echo: it must end in an error, never in verified bytes.
	w.Node.Close()
	if err := <-echoErr; err == nil {
		return compromised(atk, tr, "traffic verified through an overclaimed ring (lie unnoticed)")
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
	psk := gateway.TenantKey(chaos.GatewayMaster, 1)
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
	w := chaos.NewTenantWorld()
	defer w.Node.Close()
	for i := 0; i < 5; i++ {
		drops := w.Node.Tb.Tenant(1).Drops
		c, err := w.Node.DialRaw()
		if err != nil {
			return compromised(atk, tr, "raw dial: "+err.Error())
		}
		c.Write(gateway.EncodeHello(1))
		c.Write(frame(40, byte(i))) // junk where the ctls hello should be
		c.Close()                   // the handshake fails now, not at the gateway's timeout
		if !w.AwaitCharge(1, drops) {
			return compromised(atk, tr, "forged hello never charged to the claimed id")
		}
		w.Clock.Advance(2 * time.Second) // serve the handshake backoff
	}
	if drops := w.Node.Tb.Tenant(1).Drops; drops != 5 {
		return compromised(atk, tr, fmt.Sprintf("%d faults charged for 5 forged hellos", drops))
	}
	if w.Node.GW.TenantEvicted(1) {
		return compromised(atk, tr, "forged hellos evicted the victim tenant")
	}
	// The real key-holder is unharmed.
	c, err := w.Node.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "victim locked out by forgery storm: "+err.Error())
	}
	defer c.Close()
	if err := chaos.EchoVerify(c, 1, 3); err != nil {
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
	w := chaos.NewTenantWorld()
	defer w.Node.Close()
	nb, err := w.Node.DialTenant(2)
	if err != nil {
		return compromised(atk, tr, "neighbor dial: "+err.Error())
	}
	defer nb.Close()

	// The flooder holds its whole quota, so every further flow breaches it.
	for i := 0; i < 2; i++ {
		hold, err := w.Node.DialTenant(1)
		if err != nil {
			return compromised(atk, tr, "hold dial: "+err.Error())
		}
		defer hold.Close()
	}
	if !w.AwaitFlows(1, 2) {
		return compromised(atk, tr, "held flows never registered")
	}
	for i := 0; i < 6; i++ {
		w.FloodOnce(1)
		if err := chaos.EchoVerify(nb, 2, 1); err != nil {
			return compromised(atk, tr, fmt.Sprintf("neighbor interrupted mid-storm: %v", err))
		}
		w.Clock.Advance(2 * time.Second) // serve the flood's backoff
	}
	if err := chaos.EchoVerify(nb, 2, 2); err != nil {
		return compromised(atk, tr, "neighbor broken after storm: "+err.Error())
	}
	if dead := w.Node.GatewayTransport().Dead(); dead != nil {
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
	if bytes.Equal(gateway.TenantKey(chaos.GatewayMaster, 1), gateway.TenantKey(chaos.GatewayMaster, 2)) {
		return compromised(atk, tr, "two tenants derived the same key")
	}
	w := chaos.NewTenantWorld()
	defer w.Node.Close()
	// Attacker = tenant 2, using its own key under the victim's id.
	drops := w.Node.Tb.Tenant(1).Drops
	if _, err := w.Node.DialTenantKey(1, gateway.TenantKey(chaos.GatewayMaster, 2)); err == nil {
		return compromised(atk, tr, "attacker completed a handshake as the victim")
	}
	// And the honest victim is untouched by the attempt, once the
	// backoff it armed on the victim's id has passed.
	if !w.AwaitCharge(1, drops) {
		return compromised(atk, tr, "failed handshake never charged to the claimed id")
	}
	w.Clock.Advance(2 * time.Second)
	c, err := w.Node.DialTenant(1)
	if err != nil {
		return compromised(atk, tr, "victim locked out: "+err.Error())
	}
	defer c.Close()
	if err := chaos.EchoVerify(c, 1, 3); err != nil {
		return compromised(atk, tr, "victim traffic broken: "+err.Error())
	}
	if w.Node.GW.TenantEvicted(1) {
		return compromised(atk, tr, "impersonation attempt evicted the victim")
	}
	return blocked(atk, tr, "cross-tenant key confusion refused at the handshake; victim unharmed")
}
