// Package compartment simulates low-latency intra-TEE memory isolation
// (MPK/CHERI-style, per the paper's §3.1 citations) and the single-
// distrust call gate the dual-boundary design places at L5.
//
// The trust relation is asymmetric by design: the I/O compartment trusts
// the application compartment, but not vice versa. That asymmetry is what
// makes the L5 boundary cheap — "an additional heavyweight protection
// domain switch on the I/O path would unnecessarily hurt latency by
// introducing a dual distrust boundary at L5 where only single distrust
// is needed".
//
// Buffers carry an owner tag; the gate enforces the trusted-component-
// allocates policy from §3.2: the application allocates its transmit
// buffers directly in the I/O domain's arena (so the I/O stack never
// dereferences application pointers), and supplies the destination
// buffer on receive. Violations return ErrPolicy — in real hardware they
// would be a protection fault.
package compartment

import (
	"errors"
	"fmt"
	"sync"

	"confio/internal/platform"
)

// ErrPolicy reports a buffer-ownership or allocation-policy violation.
var ErrPolicy = errors.New("compartment: ownership policy violation")

// ErrDomainAccess reports a cross-domain access without a gate.
var ErrDomainAccess = errors.New("compartment: cross-domain access denied")

// Domain is one intra-TEE protection domain.
type Domain struct {
	name  string
	meter *platform.Meter

	mu        sync.Mutex
	allocated int
}

// NewDomain creates a protection domain. The meter may be nil.
func NewDomain(name string, meter *platform.Meter) *Domain {
	return &Domain{name: name, meter: meter}
}

// Name returns the domain's name.
func (d *Domain) Name() string { return d.name }

// AllocatedBytes returns the domain's live buffer bytes.
func (d *Domain) AllocatedBytes() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.allocated
}

// Buffer is a byte buffer tagged with its owning domain. Access is
// checked against the accessor's domain: in hardware the check is a page
// key / capability; here it is explicit.
type Buffer struct {
	owner *Domain
	data  []byte
	freed bool
}

// Alloc allocates a buffer owned by (and resident in) d.
func (d *Domain) Alloc(n int) *Buffer {
	d.mu.Lock()
	d.allocated += n
	d.mu.Unlock()
	return &Buffer{owner: d, data: make([]byte, n)}
}

// Owner returns the owning domain.
func (b *Buffer) Owner() *Domain { return b.owner }

// Len returns the buffer length.
func (b *Buffer) Len() int { return len(b.data) }

// Access returns the buffer's bytes to code running in domain from. Only
// the owner may touch the bytes; everyone else needs a gate (which
// copies or re-tags).
func (b *Buffer) Access(from *Domain) ([]byte, error) {
	if b.freed {
		return nil, fmt.Errorf("%w: use after free", ErrPolicy)
	}
	if from != b.owner {
		return nil, fmt.Errorf("%w: %s touching %s-owned buffer", ErrDomainAccess, from.name, b.owner.name)
	}
	return b.data, nil
}

// Free releases the buffer.
func (b *Buffer) Free() {
	if b.freed {
		return
	}
	b.freed = true
	b.owner.mu.Lock()
	b.owner.allocated -= len(b.data)
	b.owner.mu.Unlock()
}

// Gate is the L5 single-distrust call gate between the application
// domain (trusted by the I/O domain) and the I/O domain (NOT trusted by
// the application).
type Gate struct {
	app   *Domain
	io    *Domain
	meter *platform.Meter

	mu        sync.Mutex
	crossings uint64
}

// NewGate builds a gate between the application and I/O domains.
func NewGate(app, io *Domain, meter *platform.Meter) *Gate {
	return &Gate{app: app, io: io, meter: meter}
}

// Crossings returns the number of domain switches performed.
func (g *Gate) Crossings() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.crossings
}

func (g *Gate) cross(n int) {
	g.mu.Lock()
	g.crossings += uint64(n)
	g.mu.Unlock()
	g.meter.CrossGate(n)
}

// Call runs fn inside the I/O domain (enter + exit = two switches).
func (g *Gate) Call(fn func(ioDomain *Domain) error) error {
	g.cross(1)
	err := fn(g.io)
	g.cross(1)
	return err
}

// AllocTx implements the trusted-component-allocates policy for sends:
// the application asks the gate for a transmit buffer that lives in the
// I/O domain's arena. The application fills it through FillTx (the I/O
// domain trusts the app, so direct writes into its arena are allowed by
// the asymmetric trust relation), then hands it to the I/O stack, which
// only ever sees its own memory.
func (g *Gate) AllocTx(n int) *Buffer {
	g.cross(2) // allocation round trip
	return g.io.Alloc(n)
}

// ReuseTx is AllocTx for a transmit buffer the application kept from an
// earlier send: the same round trip, in which the I/O domain hands the
// buffer back once its stack is done with it instead of carving a new
// one. A connection can so hold one buffer for its lifetime at an
// unchanged crossing cost per send.
func (g *Gate) ReuseTx(b *Buffer) error {
	if b.owner != g.io {
		return fmt.Errorf("%w: transmit buffer must be I/O-owned", ErrPolicy)
	}
	if b.freed {
		return fmt.Errorf("%w: use after free", ErrPolicy)
	}
	g.cross(2)
	return nil
}

// FillTx lets the application write payload into an I/O-owned transmit
// buffer. Allowed precisely because the I/O domain trusts the app
// (single distrust); the reverse direction would be a violation.
func (g *Gate) FillTx(b *Buffer, payload []byte) error {
	if b.owner != g.io {
		return fmt.Errorf("%w: transmit buffer must be I/O-owned", ErrPolicy)
	}
	if b.freed {
		return fmt.Errorf("%w: use after free", ErrPolicy)
	}
	if len(payload) > len(b.data) {
		return fmt.Errorf("%w: payload %d exceeds buffer %d", ErrPolicy, len(payload), len(b.data))
	}
	copy(b.data, payload)
	return nil
}

// SubmitTx validates and passes an I/O-owned buffer to the I/O stack's
// send path. App-owned buffers are rejected: the I/O stack must never
// receive application pointers (§3.2, "avoid the need to verify
// pointers").
func (g *Gate) SubmitTx(b *Buffer, send func(payload []byte) error) error {
	if b.owner != g.io {
		return fmt.Errorf("%w: I/O stack refuses foreign buffer from %s", ErrPolicy, b.owner.name)
	}
	if b.freed {
		return fmt.Errorf("%w: use after free", ErrPolicy)
	}
	return g.Call(func(*Domain) error { return send(b.data) })
}

// Rx moves received data from the I/O domain into an application-
// provided buffer. The app does not trust the I/O stack, so the data
// crosses by copy (the gate meters it); the revocation-based alternative
// is modelled at the transport layer.
func (g *Gate) Rx(dst *Buffer, recv func(into []byte) (int, error)) (int, error) {
	if dst.owner != g.app {
		return 0, fmt.Errorf("%w: receive buffer must be app-owned", ErrPolicy)
	}
	if dst.freed {
		return 0, fmt.Errorf("%w: use after free", ErrPolicy)
	}
	var n int
	err := g.Call(func(*Domain) error {
		var e error
		n, e = recv(dst.data)
		return e
	})
	if n > 0 {
		g.meter.Copy(n)
	}
	return n, err
}
