package nic

// Multi-queue NIC contract: N independent queues behind one device, with
// guest-computed flow steering on transmit (the pump steers inbound
// traffic the same way).
//
// The queues share nothing on the datapath — no common lock, no common
// index — so senders pinned to different queues scale. What they do
// share is fate: the underlying transport (safering.MultiEndpoint) wires
// every queue to one fail-dead latch, so a protocol violation observed
// on any queue surfaces as ErrClosed on all of them.

import (
	"errors"
	"sync/atomic"
)

// MultiGuest is a BatchGuest with N independently drainable queues. The
// embedded BatchGuest methods operate on the device as a whole (steered
// send, fair receive); Queue(i) exposes one queue for callers — like the
// network stack — that pin flows to queues themselves.
type MultiGuest interface {
	BatchGuest
	// NumQueues returns the fixed queue count.
	NumQueues() int
	// Queue returns queue i's guest view.
	Queue(i int) BatchGuest
}

// GuestMux aggregates per-queue guests into one MultiGuest.
//
// SendBatch steers the whole burst to one queue chosen by the first
// frame's FlowHash. That is correct because a burst is one flow's frames
// (the in-tree stack marshals one packet — possibly several fragments,
// which hash identically — per burst); it is also what keeps the mux
// lock-free: per-frame partitioning would need shared scratch and a
// mutex, serializing the senders the queues exist to unserialize.
type GuestMux struct {
	queues []BatchGuest
	cursor atomic.Uint32 // rotating receive start, for drain fairness
}

// NewGuestMux builds a MultiGuest over per-queue guests (at least one).
func NewGuestMux(queues []BatchGuest) *GuestMux {
	if len(queues) == 0 {
		panic("nic: GuestMux needs at least one queue")
	}
	return &GuestMux{queues: queues}
}

// NumQueues implements MultiGuest.
func (m *GuestMux) NumQueues() int { return len(m.queues) }

// Queue implements MultiGuest.
func (m *GuestMux) Queue(i int) BatchGuest { return m.queues[i] }

// MAC implements nic.Guest (all queues share the station address).
func (m *GuestMux) MAC() [6]byte { return m.queues[0].MAC() }

// MTU implements nic.Guest.
func (m *GuestMux) MTU() int { return m.queues[0].MTU() }

// Send implements nic.Guest: the frame steers itself.
func (m *GuestMux) Send(frame []byte) error {
	return m.queues[QueueFor(frame, len(m.queues))].Send(frame)
}

// SendBatch implements nic.BatchGuest: the burst steers as a unit by its
// first frame (see the type comment for why that is sound).
func (m *GuestMux) SendBatch(frames [][]byte) (int, error) {
	if len(frames) == 0 {
		return 0, nil
	}
	return m.queues[QueueFor(frames[0], len(m.queues))].SendBatch(frames)
}

// Recv implements nic.Guest: RecvBatch of one.
func (m *GuestMux) Recv() (Frame, error) {
	var one [1]Frame
	_, err := m.RecvBatch(one[:])
	return one[0], err
}

// RecvBatch implements nic.BatchGuest: it drains every queue in turn
// (rotating the starting queue) until out is full or all queues are
// empty. A fatal error from any queue is returned with whatever was
// already dequeued.
func (m *GuestMux) RecvBatch(out []Frame) (int, error) {
	if len(out) == 0 {
		return 0, nil
	}
	start := int(m.cursor.Add(1))
	filled := 0
	for i := range m.queues {
		q := m.queues[(start+i)%len(m.queues)]
		n, err := q.RecvBatch(out[filled:])
		filled += n
		if err != nil && err != ErrEmpty && !errors.Is(err, ErrEmpty) {
			return filled, err
		}
		if filled == len(out) {
			return filled, nil
		}
	}
	if filled == 0 {
		return 0, ErrEmpty
	}
	return filled, nil
}
