package safering

import (
	"errors"
	"sync"

	"confio/internal/nic"
)

// GuestNIC adapts an Endpoint to the transport-neutral nic.Guest contract.
type GuestNIC struct {
	EP *Endpoint
	// rxScratch recycles the []*RxFrame staging slice RecvBatch needs to
	// bridge the concrete batch API to []nic.Frame, keeping the adapter
	// off the steady-state allocation path.
	rxScratch sync.Pool
}

// NIC returns the endpoint's nic.Guest view.
func (e *Endpoint) NIC() nic.Guest { return &GuestNIC{EP: e} }

// nicErr translates ring errors into the transport-neutral nic
// contract, for both adapters. Stall deaths map to nic.ErrStalled (which
// still matches nic.ErrClosed) so the stack can report the distinction;
// anything else (a frame-size refusal, the host port's own violation
// report) passes through.
func nicErr(err error) error {
	// The poll path first — success, then empty, then full — and by
	// identity, since the ring returns its sentinels bare: errors.Is is
	// the fallback for a wrapped sentinel and for the terminal errors.
	switch {
	case err == nil:
		return nil
	case err == ErrRingEmpty || errors.Is(err, ErrRingEmpty):
		return nic.ErrEmpty
	case err == ErrRingFull || errors.Is(err, ErrRingFull):
		return nic.ErrFull
	case errors.Is(err, ErrStalled):
		return nic.ErrStalled
	case errors.Is(err, ErrDead):
		return nic.ErrClosed
	}
	return err
}

// Send implements nic.Guest.
func (g *GuestNIC) Send(frame []byte) error { return nicErr(g.EP.Send(frame)) }

// Recv implements nic.Guest.
func (g *GuestNIC) Recv() (nic.Frame, error) {
	rx, err := g.EP.Recv()
	if err != nil {
		return nil, nicErr(err)
	}
	return rx, nil
}

// SendBatch implements nic.BatchGuest: one lock acquisition, one index
// publication, at most one doorbell for the whole batch.
func (g *GuestNIC) SendBatch(frames [][]byte) (int, error) {
	n, err := g.EP.SendBatch(frames)
	return n, nicErr(err)
}

// rxEmpty is what RecvBatch returns from an empty ring: nic.ErrEmpty to
// errors.Is, carrying the nic.Parker an idle poller parks on. The handle
// rides in the error so that it passes through wrappers that implement
// exactly nic.BatchGuest; one pointer wide, it boxes without allocating.
type rxEmpty struct{ ep *Endpoint }

func (rxEmpty) Error() string                  { return nic.ErrEmpty.Error() }
func (rxEmpty) Is(target error) bool           { return target == nic.ErrEmpty }
func (r rxEmpty) Park(wake chan struct{}) bool { return r.ep.ParkRX(wake) }
func (r rxEmpty) Unpark()                      { r.ep.UnparkRX() }

// RecvBatch implements nic.BatchGuest.
func (g *GuestNIC) RecvBatch(out []nic.Frame) (int, error) {
	sp, _ := g.rxScratch.Get().(*[]*RxFrame)
	if sp == nil || cap(*sp) < len(out) {
		s := make([]*RxFrame, len(out))
		sp = &s
	}
	rxs := (*sp)[:len(out)]
	n, err := g.EP.RecvBatch(rxs)
	for i := 0; i < n; i++ {
		out[i] = rxs[i]
		rxs[i] = nil // drop the reference before pooling the scratch
	}
	g.rxScratch.Put(sp)
	if err == ErrRingEmpty {
		return 0, rxEmpty{g.EP}
	}
	return n, nicErr(err)
}

// MAC implements nic.Guest.
func (g *GuestNIC) MAC() [6]byte { return g.EP.Config().MAC }

// MTU implements nic.Guest.
func (g *GuestNIC) MTU() int { return g.EP.Config().MTU }

// HostNIC adapts a HostPort to the nic.Host contract.
type HostNIC struct {
	HP *HostPort
}

// NIC returns the host port's nic.Host view.
func (h *HostPort) NIC() nic.Host { return &HostNIC{HP: h} }

// Pop implements nic.Host.
func (h *HostNIC) Pop(buf []byte) (int, error) {
	n, err := h.HP.Pop(buf)
	return n, nicErr(err)
}

// Push implements nic.Host.
func (h *HostNIC) Push(frame []byte) error { return nicErr(h.HP.Push(frame)) }

// PopBatch implements nic.BatchHost.
func (h *HostNIC) PopBatch(bufs [][]byte, lens []int) (int, error) {
	n, err := h.HP.PopBatch(bufs, lens)
	return n, nicErr(err)
}

// PushBatch implements nic.BatchHost.
func (h *HostNIC) PushBatch(frames [][]byte) (int, error) {
	n, err := h.HP.PushBatch(frames)
	return n, nicErr(err)
}

// FrameCap implements nic.Host.
func (h *HostNIC) FrameCap() int { return h.HP.Shared().Cfg.FrameCap() }

// ArmNotify implements nic.NotifyHost: publish the host's TX wake
// threshold and report whether work already waits (poll again, don't
// block).
func (h *HostNIC) ArmNotify() bool { return h.HP.ArmTXNotify() }

// SuppressNotify implements nic.NotifyHost.
func (h *HostNIC) SuppressNotify() { h.HP.SuppressTXNotify() }

// NotifyChan implements nic.NotifyHost: the doorbell trigger, or the
// park wake on a polling-mode device.
func (h *HostNIC) NotifyChan() <-chan struct{} { return h.HP.TXWake() }

// NIC returns the multi-queue endpoint's nic.MultiGuest view: a mux over
// per-queue GuestNIC adapters. Flow steering happens above this adapter
// (in the mux or the network stack), always from guest-private bytes.
func (m *MultiEndpoint) NIC() nic.MultiGuest {
	qs := make([]nic.BatchGuest, m.Queues())
	for i := range qs {
		qs[i] = &GuestNIC{EP: m.Queue(i)}
	}
	return nic.NewGuestMux(qs)
}

// HostNICs returns one nic.BatchHost per queue, index-aligned — the form
// nic.StartMultiPump consumes.
func (m *MultiHostPort) HostNICs() []nic.BatchHost {
	qs := make([]nic.BatchHost, m.Queues())
	for i := range qs {
		qs[i] = &HostNIC{HP: m.Queue(i)}
	}
	return qs
}
