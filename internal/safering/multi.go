package safering

import (
	"fmt"
	"sync"
	"sync/atomic"

	"confio/internal/platform"
)

// MaxQueues bounds the queue count of a multi-queue device. The limit is
// a deployment sanity check, not a protocol constant: each queue is a
// full independent ring pair and VIA's device-interface study argues
// every extra queue is extra attack surface, so the count is fixed small
// at construction like every other zero-negotiation parameter.
const MaxQueues = 64

// DeathLatch is the device-wide fail-dead state shared by every queue of
// a multi-queue device. The paper's stateless principle says a protocol
// violation has no recovery path; on a multi-queue device the blast
// radius is the whole device, not the one queue the host happened to
// corrupt — otherwise a malicious host could kill queues selectively and
// steer traffic onto the survivors it wants to study. The first
// violation wins; every queue observes it on its next operation.
type DeathLatch struct {
	err atomic.Pointer[deathErr]
}

// deathErr boxes the fatal error so the latch can CAS a single pointer.
type deathErr struct{ err error }

// Kill records the first device-fatal error. Concurrent killers race on
// a single CAS so exactly one cause is latched; Kill returns that cause
// — the value every later Dead() call repeats, whether or not it is the
// err this caller brought — and whether this call won the race. Callers
// must adopt the returned cause instead of the error they detected,
// otherwise two queues dying simultaneously would report different
// device-death causes (the first-error race this signature exists to
// close).
func (l *DeathLatch) Kill(err error) (cause error, won bool) {
	if l == nil {
		return nil, false
	}
	if err == nil {
		return l.Dead(), false
	}
	won = l.err.CompareAndSwap(nil, &deathErr{err: err})
	return l.Dead(), won
}

// reset clears the latch for the next incarnation. Unexported on
// purpose, and the ciovet latchclear rule enforces that only the
// Reincarnate path calls it: clearing device death anywhere else would
// reopen the recoverable-error surface fail-dead exists to remove.
func (l *DeathLatch) reset() {
	l.err.Store(nil)
}

// Dead returns the violation that killed the device, if any.
func (l *DeathLatch) Dead() error {
	if l == nil {
		return nil
	}
	if d := l.err.Load(); d != nil {
		return d.err
	}
	return nil
}

// MultiEndpoint is the guest side of an N-queue safe NIC: N fully
// independent ring pairs (each with its own shared window, indices,
// data areas and validation state) behind one device-wide fail-dead
// latch. There is no shared control plane between the queues — queue
// count is fixed at construction like every other parameter, and the
// host never supplies a queue id: receive demultiplexing is positional
// (which ring the completion arrived on) and transmit steering is
// computed entirely from guest-private frame bytes (see nic.FlowHash).
type MultiEndpoint struct {
	queues []*Endpoint
	bank   *platform.MeterBank
	latch  *DeathLatch
	cfg    DeviceConfig

	// recMu guards the device-level quarantine state; reincarnation is a
	// whole-device operation (all queues reborn under one admission).
	recMu sync.Mutex
	rec   *Quarantine
}

// NewMulti constructs an N-queue guest device. Every queue gets the same
// configuration; bank (which may be nil) supplies one meter per queue
// and must cover at least queues meters when non-nil.
func NewMulti(cfg DeviceConfig, queues int, bank *platform.MeterBank) (*MultiEndpoint, error) {
	if queues < 1 || queues > MaxQueues {
		return nil, fmt.Errorf("%w: %d queues (want 1..%d)", ErrConfig, queues, MaxQueues)
	}
	if bank != nil && bank.Len() < queues {
		return nil, fmt.Errorf("%w: meter bank has %d meters for %d queues", ErrConfig, bank.Len(), queues)
	}
	m := &MultiEndpoint{
		bank:  bank,
		latch: &DeathLatch{},
		cfg:   cfg,
		rec:   NewQuarantine(DefaultRecoveryPolicy()),
	}
	m.queues = make([]*Endpoint, queues)
	for i := range m.queues {
		var meter *platform.Meter
		if bank != nil {
			meter = bank.Queue(i)
		}
		ep, err := New(cfg, meter)
		if err != nil {
			return nil, err
		}
		ep.latch = m.latch
		m.queues[i] = ep
	}
	return m, nil
}

// Queues returns the queue count.
func (m *MultiEndpoint) Queues() int { return len(m.queues) }

// Queue returns queue i's endpoint.
func (m *MultiEndpoint) Queue(i int) *Endpoint { return m.queues[i] }

// Config returns the per-queue device configuration.
func (m *MultiEndpoint) Config() DeviceConfig { return m.cfg }

// Latch exposes the device-wide fail-dead latch (the host-port side of
// the same device attaches to it in tests that model one host process
// owning both directions).
func (m *MultiEndpoint) Latch() *DeathLatch { return m.latch }

// Dead returns the violation that killed the device, if any. A non-nil
// result means every queue refuses I/O with ErrDead.
func (m *MultiEndpoint) Dead() error { return m.latch.Dead() }

// SharedQueues returns every queue's host-visible state, index-aligned.
func (m *MultiEndpoint) SharedQueues() []*Shared {
	out := make([]*Shared, len(m.queues))
	for i, q := range m.queues {
		out[i] = q.Shared()
	}
	return out
}

// SuppressRXNotify withdraws every queue's receive wake threshold — the
// device-wide "I am actively polling" declaration a busy-poll guest
// makes once under sustained load (see Endpoint.SuppressRXNotify).
func (m *MultiEndpoint) SuppressRXNotify() {
	for _, q := range m.queues {
		q.SuppressRXNotify()
	}
}

// Costs returns the aggregated device snapshot across all queue meters.
func (m *MultiEndpoint) Costs() platform.Costs { return m.bank.Snapshot() }

// QueueCosts returns per-queue cost snapshots (nil without a bank).
func (m *MultiEndpoint) QueueCosts() []platform.Costs { return m.bank.QueueSnapshots() }

// MultiHostPort is the honest N-queue device model: one HostPort per
// queue behind a host-side device-wide latch. The host is mutually
// distrusting too — a guest protocol violation observed on any queue
// poisons the whole device model, the analogue of the host killing the
// VM rather than continuing with a guest it has caught lying.
type MultiHostPort struct {
	queues []*HostPort
	latch  *DeathLatch
}

// NewMultiHostPort attaches an honest device model to every queue of a
// device (the SharedQueues of a MultiEndpoint).
func NewMultiHostPort(shs []*Shared) *MultiHostPort {
	m := &MultiHostPort{latch: &DeathLatch{}}
	m.queues = make([]*HostPort, len(shs))
	for i, sh := range shs {
		hp := NewHostPort(sh)
		hp.latch = m.latch
		m.queues[i] = hp
	}
	return m
}

// Queues returns the queue count.
func (m *MultiHostPort) Queues() int { return len(m.queues) }

// Queue returns queue i's host port.
func (m *MultiHostPort) Queue(i int) *HostPort { return m.queues[i] }

// Dead returns the guest violation that poisoned the device model.
func (m *MultiHostPort) Dead() error { return m.latch.Dead() }

// SuppressTXNotify withdraws every queue's transmit wake threshold —
// what a sharded host pump does on each queue it actively polls.
func (m *MultiHostPort) SuppressTXNotify() {
	for _, q := range m.queues {
		q.SuppressTXNotify()
	}
}
