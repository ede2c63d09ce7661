// Package simnet simulates the physical network that connects host-side
// NIC backends: a learning Ethernet switch with per-port queues,
// optional deterministic impairment (loss, duplication, reordering) for
// exercising transport recovery, and a capture hook that records exactly
// what an on-path observer sees — the baseline against which the
// observability of each confidential I/O design is scored (§3.1: "a
// powerful attacker on the host does not have access to more information
// than it would by monitoring the network").
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
)

// Broadcast is the Ethernet broadcast address.
var Broadcast = [6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}

// CaptureRecord is one frame as seen by an on-path observer.
type CaptureRecord struct {
	Seq     uint64
	SrcPort int
	Len     int
	Dst     [6]byte
	Src     [6]byte
	// EtherType as on the wire.
	EtherType uint16
}

// Impairment configures deterministic fault injection on a port's
// *inbound* delivery. Zero value = perfect link.
type Impairment struct {
	// DropEvery drops one frame in every n (n<=0 disables).
	DropEvery int
	// DupEvery duplicates one frame in every n (n<=0 disables).
	DupEvery int
	// ReorderEvery holds back one frame in every n and delivers it after
	// the following frame (n<=0 disables).
	ReorderEvery int
	// CorruptEvery flips a bit in one frame in every n (n<=0 disables).
	CorruptEvery int
	// Seed makes corruption placement deterministic.
	Seed int64
}

// Network is a learning Ethernet switch.
type Network struct {
	mu       sync.Mutex
	ports    []*Port
	macs     map[[6]byte]int // learned MAC -> port index
	seq      uint64
	capture  []CaptureRecord
	capOn    bool
	payloads [][]byte
	payOn    bool
	// onFrame, if set, observes every switched frame (observability
	// metering); called without the lock held.
	onFrame func(CaptureRecord)
}

// New creates an empty network.
func New() *Network {
	return &Network{macs: make(map[[6]byte]int)}
}

// EnableCapture starts recording CaptureRecords (bounded by caller use;
// tests and the observability meter reset it between runs).
func (n *Network) EnableCapture() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capOn = true
}

// EnablePayloadCapture additionally records full frame contents — the
// raw bytes an on-path attacker holds. Bounded only by traffic volume;
// intended for tests and examples that grep the wire for secrets.
func (n *Network) EnablePayloadCapture() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capOn = true
	n.payOn = true
}

// Payloads returns copies of every captured frame's full contents.
func (n *Network) Payloads() [][]byte {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([][]byte, len(n.payloads))
	copy(out, n.payloads)
	return out
}

// Capture returns a copy of recorded frames.
func (n *Network) Capture() []CaptureRecord {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]CaptureRecord, len(n.capture))
	copy(out, n.capture)
	return out
}

// ResetCapture clears recorded frames.
func (n *Network) ResetCapture() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.capture = nil
	n.payloads = nil
}

// OnFrame registers an observer for every switched frame.
func (n *Network) OnFrame(f func(CaptureRecord)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.onFrame = f
}

// ErrPortClosed is returned when sending through or into a closed port.
var ErrPortClosed = errors.New("simnet: port closed")

// Port is one switch port. The attached NIC backend calls Send for
// frames leaving the host toward the network and Recv for frames
// arriving from the network.
type Port struct {
	n     *Network
	index int

	// wake is the coalescing delivery signal: poked after every frame
	// queued here, so a backend can block on it between polls.
	wake chan struct{}

	mu sync.Mutex
	// queue is a ring, grown by doubling from queueMin to queueCap slots
	// (a port costs nothing until it has carried a burst): qlen frames
	// wait, the oldest at qhead. qlen is written only under mu but read
	// without it, so a poll of an empty port takes no lock.
	queue  [][]byte
	qhead  int
	qlen   atomic.Int32
	held   [][]byte // reorder buffer
	closed bool
	imp    Impairment
	rng    *rand.Rand
	count  uint64
	// Drops counts frames lost to impairment or overflow.
	Drops uint64
	// free holds the frame buffers consumers handed back (Release), at
	// most freeMax, for deliver's copies to reuse.
	free [][]byte
}

// queueCap bounds per-port buffering; beyond it frames drop (a real
// switch tail-drops too). Powers of two: ring positions are masked.
const (
	queueMin = 64
	queueCap = 4096
)

// freeMax bounds a port's recycled buffers: eight pump bursts, more than
// a consumer that releases what it pushes ever holds at once. bufCap is
// the capacity of a fresh buffer: an Ethernet frame at the deployments'
// 1500-byte MTU fits, so a recycled buffer carries any frame of theirs.
const (
	freeMax = 512
	bufCap  = 2048
)

// NewPort attaches a new port to the network.
func (n *Network) NewPort() *Port {
	n.mu.Lock()
	defer n.mu.Unlock()
	p := &Port{n: n, index: len(n.ports), wake: make(chan struct{}, 1)}
	n.ports = append(n.ports, p)
	return p
}

// Impair configures fault injection for frames delivered *to* this port.
func (p *Port) Impair(imp Impairment) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.imp = imp
	p.rng = rand.New(rand.NewSource(imp.Seed))
}

// Close detaches the port; pending frames are discarded.
func (p *Port) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.queue, p.qhead = nil, 0
	p.qlen.Store(0)
	p.held, p.free = nil, nil
}

// Send transmits a frame from this port into the switch. The frame is
// copied; the caller may reuse the buffer.
func (p *Port) Send(frame []byte) error {
	if len(frame) < 14 {
		return fmt.Errorf("simnet: runt frame of %d bytes", len(frame))
	}
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return ErrPortClosed
	}
	return p.n.switchFrame(p.index, frame)
}

// Recv returns the next frame queued for this port, or false when none
// is pending. Non-blocking: device models poll, like everything else in
// the data path. The frame is the caller's until it hands it back with
// Release, if ever. An empty port answers without taking the lock: a
// zero read that is already stale is safe, because enq pokes Wake after
// it stores the new length.
func (p *Port) Recv() ([]byte, bool) {
	if p.qlen.Load() == 0 {
		return nil, false
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.qlen.Load() == 0 {
		return nil, false
	}
	f := p.queue[p.qhead]
	p.queue[p.qhead] = nil
	p.qhead = (p.qhead + 1) & (len(p.queue) - 1)
	p.qlen.Add(-1)
	return f, true
}

// Release hands back a frame Recv returned, once its bytes are consumed,
// for a later delivery to copy into. Nothing may read or write f after
// it, and no frame may be released twice. A consumer that never releases
// costs one fresh buffer per frame.
func (p *Port) Release(f []byte) {
	p.mu.Lock()
	p.recycle(f)
	p.mu.Unlock()
}

// recycle keeps f for reuse while the free list has room. The caller
// holds p.mu.
func (p *Port) recycle(f []byte) {
	if len(p.free) < freeMax && !p.closed {
		p.free = append(p.free, f)
	}
}

// frame returns a buffer of n bytes for a delivery's copy: a recycled one
// when it is large enough, else a fresh one. The caller holds p.mu.
func (p *Port) frame(n int) []byte {
	if last := len(p.free) - 1; last >= 0 && cap(p.free[last]) >= n {
		f := p.free[last]
		p.free = p.free[:last]
		return f[:n]
	}
	return make([]byte, n, max(n, bufCap))
}

// Wake returns the port's delivery signal: a capacity-1 channel poked
// after every frame queued for Recv. A backend that found Recv empty may
// block on it instead of sleeping; a pending poke means "poll", not
// "frames wait" (pokes coalesce and outlive the frames that caused them).
func (p *Port) Wake() <-chan struct{} { return p.wake }

// SetWake makes wake the port's delivery signal in place of its own, so
// one host poller can block on a signal every port it serves pokes. Wake
// returns it from then on.
func (p *Port) SetWake(wake chan struct{}) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wake = wake
}

// Network returns the switch the port is attached to.
func (p *Port) Network() *Network { return p.n }

// Pending returns the number of frames waiting at the port.
func (p *Port) Pending() int { return int(p.qlen.Load()) }

func (n *Network) switchFrame(srcPort int, frame []byte) error {
	var dst, src [6]byte
	copy(dst[:], frame[0:6])
	copy(src[:], frame[6:12])
	etherType := uint16(frame[12])<<8 | uint16(frame[13])

	n.mu.Lock()
	n.seq++
	rec := CaptureRecord{Seq: n.seq, SrcPort: srcPort, Len: len(frame), Dst: dst, Src: src, EtherType: etherType}
	if n.capOn {
		n.capture = append(n.capture, rec)
	}
	if n.payOn {
		cp := make([]byte, len(frame))
		copy(cp, frame)
		n.payloads = append(n.payloads, cp)
	}
	obs := n.onFrame
	n.macs[src] = srcPort
	outPort, known := n.macs[dst]
	ports := n.ports // append-only: a snapshot is safe to walk unlocked
	n.mu.Unlock()

	if obs != nil {
		obs(rec)
	}
	if known && dst != Broadcast {
		if outPort != srcPort {
			ports[outPort].deliver(frame)
		}
		return nil
	}
	for i, p := range ports {
		if i != srcPort {
			p.deliver(frame)
		}
	}
	return nil
}

// enq queues one frame for Recv, tail-dropping at queueCap, and pokes the
// delivery signal. The caller holds p.mu.
func (p *Port) enq(f []byte) {
	qlen := int(p.qlen.Load())
	if qlen == len(p.queue) {
		if qlen == queueCap {
			p.Drops++
			p.recycle(f)
			return
		}
		grown := make([][]byte, max(queueMin, 2*qlen))
		n := copy(grown, p.queue[p.qhead:])
		copy(grown[n:], p.queue[:p.qhead])
		p.queue, p.qhead = grown, 0
	}
	p.queue[(p.qhead+qlen)&(len(p.queue)-1)] = f
	p.qlen.Add(1)
	select {
	case p.wake <- struct{}{}:
	default:
	}
}

// deliver enqueues a private copy of frame at a port, applying
// impairment. The copy is the wire: it goes into a buffer a consumer
// released when there is one.
func (p *Port) deliver(frame []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.count++
	imp := p.imp

	if imp.DropEvery > 0 && p.count%uint64(imp.DropEvery) == 0 {
		p.Drops++
		return
	}
	cp := p.frame(len(frame))
	copy(cp, frame)

	if imp.CorruptEvery > 0 && p.count%uint64(imp.CorruptEvery) == 0 && p.rng != nil {
		bit := p.rng.Intn(len(cp) * 8)
		cp[bit/8] ^= 1 << (bit % 8)
	}

	if imp.ReorderEvery > 0 && p.count%uint64(imp.ReorderEvery) == 0 {
		p.held = append(p.held, cp)
		return
	}
	p.enq(cp)
	// Release any held frame after the one that jumped ahead of it.
	for _, h := range p.held {
		p.enq(h)
	}
	p.held = p.held[:0]

	if imp.DupEvery > 0 && p.count%uint64(imp.DupEvery) == 0 {
		dup := p.frame(len(cp))
		copy(dup, cp)
		p.enq(dup)
	}
}
