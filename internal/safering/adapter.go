package safering

import "confio/internal/nic"

// GuestNIC is an Endpoint as a nic.BatchGuest. The endpoint implements
// the rest of the contract itself, in nic's errors; GuestNIC adds only
// RecvBatch into []nic.Frame and the Parker an empty ring carries.
type GuestNIC struct{ *Endpoint }

// NIC returns the endpoint's nic.Guest view.
func (e *Endpoint) NIC() nic.Guest { return &GuestNIC{Endpoint: e} }

// rxEmpty is what RecvBatch returns from an empty ring: nic.ErrEmpty to
// errors.Is, carrying the nic.Parker an idle poller parks on. The handle
// rides in the error so that it passes through wrappers that implement
// exactly nic.BatchGuest; one pointer wide, it boxes without allocating.
type rxEmpty struct{ ep *Endpoint }

func (rxEmpty) Error() string                  { return nic.ErrEmpty.Error() }
func (rxEmpty) Is(target error) bool           { return target == nic.ErrEmpty }
func (r rxEmpty) Park(wake chan struct{}) bool { return r.ep.ParkRX(wake) }
func (r rxEmpty) Unpark()                      { r.ep.UnparkRX() }

// RecvBatch implements nic.BatchGuest. An empty or dead ring is
// answered before the lock (idlePoll); an empty out delivers nothing.
func (g *GuestNIC) RecvBatch(out []nic.Frame) (int, error) {
	n, err := 0, idlePoll(g.life, &g.rx)
	if err == nil {
		n, err = g.recvBatch(len(out), func(i int, f *RxFrame) { out[i] = f })
	}
	if err == nic.ErrEmpty {
		return 0, rxEmpty{g.Endpoint}
	}
	return n, err
}

// HostNIC is a HostPort as a nic.NotifyHost: the port is the
// nic.BatchHost itself, and HostNIC only renames its transmit wake.
type HostNIC struct{ *HostPort }

// NIC returns the host port's nic.Host view.
func (h *HostPort) NIC() nic.Host { return HostNIC{h} }

// ArmNotify implements nic.NotifyHost: publish the host's TX wake
// threshold and report whether work already waits (poll again, don't
// block).
func (h HostNIC) ArmNotify() bool { return h.ArmTXNotify() }

// SuppressNotify implements nic.NotifyHost.
func (h HostNIC) SuppressNotify() { h.SuppressTXNotify() }

// NotifyChan implements nic.NotifyHost: the park the TX index store
// pokes, on every device.
func (h HostNIC) NotifyChan() <-chan struct{} { return h.park }

// NIC returns the multi-queue endpoint's nic.MultiGuest view: a mux over
// per-queue GuestNICs. Flow steering happens above this view (in the mux
// or the network stack), always from guest-private bytes.
func (m *MultiEndpoint) NIC() nic.MultiGuest {
	qs := make([]nic.BatchGuest, m.Queues())
	for i := range qs {
		qs[i] = &GuestNIC{Endpoint: m.Queue(i)}
	}
	return nic.NewGuestMux(qs)
}

// HostNICs returns one nic.BatchHost per queue, index-aligned — the form
// nic.StartMultiPump consumes.
func (m *MultiHostPort) HostNICs() []nic.BatchHost {
	qs := make([]nic.BatchHost, m.Queues())
	for i := range qs {
		qs[i] = HostNIC{m.Queue(i)}
	}
	return qs
}
