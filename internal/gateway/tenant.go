// Package gateway is the fan-in deployment of the paper's dual-boundary
// design (ROADMAP #5, torvmremix-shaped): one TEE terminates ctls for N
// tenants, maps each tenant to its own compartment with a per-tenant
// key, and multiplexes every flow over one shared multi-queue safe-ring
// device. The single-tenant examples prove the boundary; this package
// proves the *containment* — a misbehaving tenant is shed, backed off,
// or stickily evicted with a blast radius of exactly one tenant, while
// the device-wide fail-dead machinery stays reserved for host-level
// protocol violations.
//
// Trust model (DESIGN.md §12): tenants are mutually distrusting
// principals sharing the gateway TEE. A tenant may assume neighbors
// cannot read its plaintext (per-tenant keys, per-tenant compartment),
// cannot stall its flows (per-flow equality-only stall shedding), and
// cannot kill it (fault budgets are per-tenant and only a key-holder
// can burn its own). The host remains fully untrusted underneath —
// everything the safe ring already guarantees — and a host-level
// violation still kills the whole device, for every tenant: fail-dead
// containment layers under, not instead of, per-tenant eviction.
package gateway

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"time"

	"confio/internal/compartment"
	"confio/internal/platform"
	"confio/internal/safering"
)

// TenantID identifies one tenant principal. Zero is reserved (never a
// valid tenant): it is what a parse failure and an unprovisioned lookup
// return, so it can never alias a real tenant's budget or meter.
type TenantID uint64

func (id TenantID) String() string { return fmt.Sprintf("tenant-%d", uint64(id)) }

// Hello is the cleartext flow preamble: magic then the big-endian
// tenant id. It only *routes* — it names the key the gateway should try
// — and is authenticated retroactively by the ctls handshake that
// follows (only the key-holder can complete it). Nothing the gateway
// does before handshake completion is allowed to burn the named
// tenant's eviction budget, because on-path hosts and rival tenants can
// forge this preamble at will.
const (
	helloMagic = "CIO\x01"
	HelloLen   = len(helloMagic) + 8
)

// Hello-layer errors.
var (
	// ErrHello rejects a malformed flow preamble (bad magic, short read,
	// zero id). The flow is dropped before any tenant state is touched.
	ErrHello = errors.New("gateway: malformed tenant hello")
	// ErrUnknownTenant rejects a well-formed hello naming an id the
	// gateway was not provisioned with.
	ErrUnknownTenant = errors.New("gateway: unknown tenant")
	// ErrTenantEvicted refuses a tenant whose fault budget is exhausted.
	// Eviction is sticky for the gateway's lifetime, mirroring the
	// sticky permanence of the device-wide death budget one layer down.
	ErrTenantEvicted = errors.New("gateway: tenant evicted (fault budget exhausted)")
	// ErrTenantBackoff refuses a flow while the tenant is inside a fault
	// backoff window (handshake failures or prior shed flows). Unlike
	// eviction it clears by itself; the refusal consumes no budget.
	ErrTenantBackoff = errors.New("gateway: tenant in fault backoff")
	// ErrFlowLimit refuses a flow that would exceed the tenant's
	// concurrent-flow quota. The refusal itself also counts as one
	// authenticated flood fault against the tenant's budget.
	ErrFlowLimit = errors.New("gateway: tenant flow limit exceeded")
)

// EncodeHello renders the flow preamble for tenant id.
func EncodeHello(id TenantID) []byte {
	b := make([]byte, HelloLen)
	copy(b, helloMagic)
	binary.BigEndian.PutUint64(b[len(helloMagic):], uint64(id))
	return b
}

// ParseHello validates a flow preamble and extracts the claimed tenant
// id. The input must be exactly HelloLen bytes of well-formed hello;
// anything else — hostile lengths included — is ErrHello with id zero.
func ParseHello(b []byte) (TenantID, error) {
	if len(b) != HelloLen || string(b[:len(helloMagic)]) != helloMagic {
		return 0, ErrHello
	}
	id := TenantID(binary.BigEndian.Uint64(b[len(helloMagic):]))
	if id == 0 {
		return 0, fmt.Errorf("%w: zero tenant id", ErrHello)
	}
	return id, nil
}

// TenantKey derives tenant id's ctls PSK from the gateway master secret
// (HMAC-SHA256 as the derivation PRF, domain-separated from every other
// use). In a real deployment the master secret is established by remote
// attestation of the gateway TEE and each tenant derives its own copy;
// here it stands in for that provisioning, exactly like the per-world
// PSKs in core.
func TenantKey(master []byte, id TenantID) []byte {
	m := hmac.New(sha256.New, master)
	m.Write([]byte("confio-gateway-tenant-key"))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	m.Write(b[:])
	return m.Sum(nil)
}

// SteerTenant maps a tenant id onto one of n queues with the same
// FNV-1a construction the NIC uses for flow steering (nic.FlowHash), so
// tenant-to-queue attribution in experiments matches what the ring
// actually does to the tenant's frames. n <= 1 always steers to 0.
func SteerTenant(id TenantID, n int) int {
	if n <= 1 {
		return 0
	}
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	h := uint32(fnvOffset32)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(id))
	for _, c := range b {
		h ^= uint32(c)
		h *= fnvPrime32
	}
	return int(h % uint32(n))
}

// tenant is the gateway's per-tenant containment state. All fields past
// the immutable ones are guarded by mu.
type tenant struct {
	id    TenantID
	psk   []byte
	meter *platform.Meter // this tenant's slice of the TenantBank

	// app/io/gate are the tenant's own compartment pair: flows terminate
	// ctls inside the tenant's domain and reach the shared I/O stack
	// only through the tenant's gate (trusted-component-allocates), so
	// no neighbor's buffer is ever reachable from this tenant's path.
	app  *compartment.Domain
	io   *compartment.Domain
	gate *compartment.Gate

	mu sync.Mutex
	// faults is the tenant's eviction budget: every *authenticated*
	// fault (flood over quota, shed stalled flow) takes one admission;
	// exhaustion is sticky eviction. Handshake failures deliberately do
	// NOT feed this machine — see handshakeFault.
	faults *safering.Quarantine
	// hsFaults rate-limits handshake failures per claimed id with
	// backoff only: a huge budget makes it practically inexhaustible, so
	// an attacker replaying someone else's tenant id can slow that
	// tenant down briefly but never evict it.
	hsFaults *safering.Quarantine
	evicted  bool
	flows    map[*flow]struct{}
}

// clock returns the policy clock (the chaos harness injects a fake one).
func (t *tenant) clock(p safering.RecoveryPolicy) func() time.Time {
	if p.Clock != nil {
		return p.Clock
	}
	return time.Now
}

// admissible refuses evicted and backed-off tenants without consuming
// any budget. now comes from the policy clock.
func (t *tenant) admissible(now time.Time) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.evicted {
		return ErrTenantEvicted
	}
	if now.Before(t.faults.NotBefore()) || now.Before(t.hsFaults.NotBefore()) {
		return ErrTenantBackoff
	}
	return nil
}

// handshakeFault charges one failed ctls handshake against the claimed
// id. Backoff only, never eviction: pre-handshake identity is just a
// routing claim, and charging it to the sticky budget would hand any
// on-path host (or rival tenant) a kill switch for arbitrary tenants.
func (t *tenant) handshakeFault() {
	t.mu.Lock()
	defer t.mu.Unlock()
	_ = t.hsFaults.Admit() // budget is effectively unlimited; arms backoff
	t.meter.Drop(1)
}

// fault charges one authenticated fault (flood, stall-shed) against the
// tenant's eviction budget. Returns ErrTenantEvicted exactly once, on
// the admission that exhausts the budget; the caller then sheds every
// live flow. Later calls on an evicted tenant are no-ops.
func (t *tenant) fault() error {
	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return ErrTenantEvicted
	}
	err := t.faults.Admit()
	if !errors.Is(err, safering.ErrBudgetExhausted) {
		// Admitted (backoff armed) or still in backoff — either way the
		// tenant lives; in-backoff faults don't stack extra penalties.
		t.mu.Unlock()
		return nil
	}
	t.evicted = true
	flows := make([]*flow, 0, len(t.flows))
	for f := range t.flows {
		flows = append(flows, f)
	}
	t.mu.Unlock()

	t.meter.Evict(1)
	for _, f := range flows {
		f.shed(ErrTenantEvicted)
	}
	return ErrTenantEvicted
}

// Evicted reports whether the tenant has been stickily evicted.
func (t *tenant) Evicted() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

func (t *tenant) addFlow(f *flow, max int) error {
	t.mu.Lock()
	if t.evicted {
		t.mu.Unlock()
		return ErrTenantEvicted
	}
	if max > 0 && len(t.flows) >= max {
		t.mu.Unlock()
		// The quota breach is an authenticated fault: only the key-holder
		// can open authenticated flows, so only the key-holder can flood.
		// Charged before it is counted, so an observer that sees the drop
		// knows the backoff is already armed.
		err := t.fault()
		t.meter.Drop(1)
		if err != nil {
			return err
		}
		return ErrFlowLimit
	}
	t.flows[f] = struct{}{}
	t.mu.Unlock()
	return nil
}

func (t *tenant) dropFlow(f *flow) {
	t.mu.Lock()
	delete(t.flows, f)
	t.mu.Unlock()
}

func (t *tenant) flowCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.flows)
}
