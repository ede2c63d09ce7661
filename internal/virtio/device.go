package virtio

import (
	"errors"
	"fmt"
	"sync"

	"confio/internal/nic"
	"confio/internal/platform"
)

// Device is the honest host-side virtio-net device model. A malicious
// host does not use this type: it manipulates the queues and control
// plane directly (see the attack harness).
type Device struct {
	cfg   Config
	ctrl  *Control
	tx    *Queue
	rx    *Queue
	meter *platform.Meter

	mu          sync.Mutex
	txLastAvail uint64
	txUsed      uint64
	rxLastAvail uint64
	rxUsed      uint64
	intCount    uint64
}

// NewDevice attaches an honest device model to the queues.
func NewDevice(cfg Config, ctrl *Control, tx, rx *Queue, meter *platform.Meter) *Device {
	return &Device{cfg: cfg, ctrl: ctrl, tx: tx, rx: rx, meter: meter}
}

// Queues exposes the TX and RX virtqueues (for tests and attacks).
func (dv *Device) Queues() (tx, rx *Queue) { return dv.tx, dv.rx }

// Control exposes the control plane.
func (dv *Device) Control() *Control { return dv.ctrl }

// NIC returns the device, which is its own nic.Host.
func (dv *Device) NIC() nic.Host { return dv }

// FrameCap implements nic.Host.
func (dv *Device) FrameCap() int { return dv.cfg.BufSize }

// Pop dequeues the next driver transmit frame into buf.
func (dv *Device) Pop(buf []byte) (int, error) {
	dv.mu.Lock()
	defer dv.mu.Unlock()
	avail := dv.tx.AvailIdx()
	if avail == dv.txLastAvail {
		return 0, nic.ErrEmpty
	}
	id := dv.tx.AvailEntry(dv.txLastAvail)
	addr, dlen, _, _ := dv.tx.ReadDesc(uint64(id))
	if dlen == 0 || int(dlen) > dv.cfg.BufSize || int(dlen) > len(buf) {
		return 0, fmt.Errorf("virtio device: descriptor len %d out of range", dlen)
	}
	dv.tx.Bufs().ReadAt(buf[:dlen], addr)
	dv.tx.PublishUsed(dv.txUsed, uint32(id), 0)
	dv.txUsed++
	dv.txLastAvail++
	return int(dlen), nil
}

// Push delivers one frame into a driver-posted receive buffer.
func (dv *Device) Push(frame []byte) error {
	if len(frame) == 0 {
		return errors.New("virtio device: empty frame")
	}
	dv.mu.Lock()
	defer dv.mu.Unlock()
	avail := dv.rx.AvailIdx()
	if avail == dv.rxLastAvail {
		return nic.ErrFull // no posted buffers
	}
	id := dv.rx.AvailEntry(dv.rxLastAvail)
	addr, dlen, flags, _ := dv.rx.ReadDesc(uint64(id))
	if flags&DescFWrite == 0 || dlen == 0 {
		return fmt.Errorf("virtio device: rx descriptor %d not writable", id)
	}
	n := len(frame)
	if uint32(n) > dlen {
		n = int(dlen) // honest device truncates to the posted buffer
	}
	dv.rx.Bufs().WriteAt(frame[:n], addr)
	dv.rx.PublishUsed(dv.rxUsed, uint32(id), uint32(n))
	dv.rxUsed++
	dv.rxLastAvail++
	dv.interrupt()
	return nil
}

// interrupt injects a receive interrupt into the guest — a TEE crossing.
// With event-idx negotiated the device suppresses most interrupts (a
// coarse 1-in-8 model of the real used_event protocol); the
// restrict-features retrofit therefore pays more exits.
func (dv *Device) interrupt() {
	dv.intCount++
	if dv.ctrl.DriverFeatures()&FeatEventIdx != 0 && dv.intCount%8 != 1 {
		return
	}
	dv.meter.Notify(1)
	dv.meter.CrossTEE(1)
}
