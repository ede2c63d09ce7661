package safering

import (
	"fmt"

	"confio/internal/platform"
)

// MaxQueues bounds the queue count of a multi-queue device. The limit is
// a deployment sanity check, not a protocol constant: each queue is a
// full independent ring pair and VIA's device-interface study argues
// every extra queue is extra attack surface, so the count is fixed small
// at construction like every other zero-negotiation parameter.
const MaxQueues = 64

// MultiEndpoint is the guest side of an N-queue safe NIC: N fully
// independent ring pairs (each with its own shared window, indices,
// data areas and validation state) behind one device-wide fail-dead
// Life. There is no shared control plane between the queues — queue
// count is fixed at construction like every other parameter, and the
// host never supplies a queue id: receive demultiplexing is positional
// (which ring the completion arrived on) and transmit steering is
// computed entirely from guest-private frame bytes (see nic.FlowHash).
type MultiEndpoint struct {
	queues []*Endpoint
	bank   *platform.MeterBank
	life   *Life
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
	m := &MultiEndpoint{bank: bank, life: NewLife(ErrDead)}
	m.queues = make([]*Endpoint, queues)
	for i := range m.queues {
		var meter *platform.Meter
		if bank != nil {
			meter = bank.Queue(i)
		}
		ep, err := newEndpoint(cfg, meter, m.life)
		if err != nil {
			return nil, err
		}
		m.queues[i] = ep
	}
	return m, nil
}

// Queues returns the queue count.
func (m *MultiEndpoint) Queues() int { return len(m.queues) }

// Queue returns queue i's endpoint.
func (m *MultiEndpoint) Queue(i int) *Endpoint { return m.queues[i] }

// Dead returns the violation that killed the device, if any. A non-nil
// result means every queue refuses I/O with ErrDead.
func (m *MultiEndpoint) Dead() error { return m.life.Dead() }

// SetRecoveryPolicy installs the device-wide quarantine policy.
func (m *MultiEndpoint) SetRecoveryPolicy(p RecoveryPolicy) { m.life.SetRecoveryPolicy(p) }

// Reincarnate recovers the dead device as one unit (Life.Reincarnate)
// and returns the new per-queue shared windows, index-aligned, for the
// new host backend to attach to.
func (m *MultiEndpoint) Reincarnate() ([]*Shared, error) {
	if err := m.life.Reincarnate(); err != nil {
		return nil, err
	}
	return m.SharedQueues(), nil
}

// SharedQueues returns every queue's host-visible state, index-aligned.
func (m *MultiEndpoint) SharedQueues() []*Shared {
	out := make([]*Shared, len(m.queues))
	for i, q := range m.queues {
		out[i] = q.Shared()
	}
	return out
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
	life   *Life
}

// NewMultiHostPort attaches an honest device model to every queue of a
// device (the SharedQueues of a MultiEndpoint).
func NewMultiHostPort(shs []*Shared) *MultiHostPort {
	m := &MultiHostPort{life: NewLife(ErrDead)}
	m.queues = make([]*HostPort, len(shs))
	for i, sh := range shs {
		m.queues[i] = newHostPort(sh, m.life)
	}
	return m
}

// Queues returns the queue count.
func (m *MultiHostPort) Queues() int { return len(m.queues) }

// Queue returns queue i's host port.
func (m *MultiHostPort) Queue(i int) *HostPort { return m.queues[i] }

// Dead returns the guest violation that poisoned the device model.
func (m *MultiHostPort) Dead() error { return m.life.Dead() }
