// Package nic defines the transport-neutral NIC contract that every
// confidential I/O interface in this repository implements — the paper's
// safe ring as well as the virtio and netvsc baselines — plus the pump
// that connects a host-side device backend to the simulated physical
// network.
//
// Guest is what the in-TEE network stack drives; Host is what the
// untrusted device model drives. Keeping both sides behind small
// non-blocking interfaces lets the experiment harness swap transports
// (and adversarial hosts) without touching the stack above.
package nic

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"confio/internal/simnet"
)

// ErrEmpty means no frame is currently available (poll again).
var ErrEmpty = errors.New("nic: no frame available")

// ErrFull means the transport has no room (retry after progress).
var ErrFull = errors.New("nic: transport full")

// ErrClosed means the endpoint was shut down or died fatally.
var ErrClosed = errors.New("nic: endpoint closed")

// ErrStalled means the transport fail-deaded because the host stopped
// making progress (see safering.ErrStalled). It matches ErrClosed via
// errors.Is, so generic teardown paths need no special case; stacks that
// want to report the stall distinctly test for ErrStalled first.
var ErrStalled = fmt.Errorf("%w: host stalled", ErrClosed)

// Frame is one received Ethernet frame. Bytes is valid until Release.
type Frame interface {
	Bytes() []byte
	Release()
}

// Guest is the guest-TEE side of a NIC.
type Guest interface {
	// Send enqueues one Ethernet frame; non-blocking. The transport
	// copies; the caller may reuse frame on return.
	Send(frame []byte) error
	// Recv dequeues one received frame; non-blocking.
	Recv() (Frame, error)
	// MAC returns the deployment-fixed station address.
	MAC() [6]byte
	// MTU returns the deployment-fixed maximum payload.
	MTU() int
}

// Host is the host side of a NIC: the device backend the pump drives.
type Host interface {
	// Pop dequeues the next guest transmit frame into buf.
	Pop(buf []byte) (int, error)
	// Push delivers a frame from the network toward the guest.
	Push(frame []byte) error
	// FrameCap returns the largest frame the transport carries.
	FrameCap() int
}

// BatchGuest is a Guest whose transport can stage several frames under
// one lock acquisition and publish them with a single index store and
// doorbell (the safe ring's amortized datapath). Both calls are
// non-blocking and may return short counts on backpressure.
type BatchGuest interface {
	Guest
	// SendBatch enqueues up to len(frames) frames and returns how many
	// were accepted; (0, ErrFull) when nothing fit. The transport copies;
	// the caller may reuse frames and every buffer in it on return —
	// the stack's frame-buffer pool relies on it.
	SendBatch(frames [][]byte) (int, error)
	// RecvBatch fills out with up to len(out) received frames and
	// returns the count; (0, ErrEmpty) when none waited.
	RecvBatch(out []Frame) (int, error)
}

// BatchHost mirrors BatchGuest on the device side, letting the pump move
// bursts instead of single frames.
type BatchHost interface {
	Host
	// PopBatch dequeues up to len(bufs) guest frames, one per buffer,
	// recording frame lengths in lens. Each buffer must hold FrameCap
	// bytes and len(lens) must cover len(bufs).
	PopBatch(bufs [][]byte, lens []int) (int, error)
	// PushBatch delivers up to len(frames) frames toward the guest and
	// returns how many were accepted; (0, ErrFull) when nothing fit.
	PushBatch(frames [][]byte) (int, error)
}

// Batching is decided once, where a transport is handed to a pump or a
// stack: UpgradeGuest and UpgradeHost return the transport itself when it
// batches and a loop shim over the scalar calls when it does not (the
// virtio, netvsc and tdisp baselines), so every layer above moves bursts
// through one path.

// UpgradeGuest returns g's batch view.
func UpgradeGuest(g Guest) BatchGuest {
	if bg, ok := g.(BatchGuest); ok {
		return bg
	}
	return scalarGuest{g}
}

// UpgradeHost returns h's batch view.
func UpgradeHost(h Host) BatchHost {
	if bh, ok := h.(BatchHost); ok {
		return bh
	}
	return scalarHost{h}
}

// GuestQueues returns every queue of a MultiGuest, or g's batch view as
// the only queue of a one-queue device.
func GuestQueues(g Guest) []BatchGuest {
	mq, ok := g.(MultiGuest)
	if !ok {
		return []BatchGuest{UpgradeGuest(g)}
	}
	qs := make([]BatchGuest, mq.NumQueues())
	for i := range qs {
		qs[i] = mq.Queue(i)
	}
	return qs
}

// burst runs step for each of n frames until one fails. Backpressure
// (soft: ErrFull or ErrEmpty) after progress is a short count, not an
// error; with no progress it is returned bare, and any other error comes
// back alongside the frames already moved — the batch contract.
func burst(n int, soft error, step func(i int) error) (int, error) {
	for i := 0; i < n; i++ {
		if err := step(i); err != nil {
			if i > 0 && errors.Is(err, soft) {
				return i, nil
			}
			return i, err
		}
	}
	return n, nil
}

type scalarGuest struct{ Guest }

func (s scalarGuest) SendBatch(frames [][]byte) (int, error) {
	return burst(len(frames), ErrFull, func(i int) error { return s.Send(frames[i]) })
}

func (s scalarGuest) RecvBatch(out []Frame) (int, error) {
	return burst(len(out), ErrEmpty, func(i int) (err error) {
		out[i], err = s.Recv()
		return err
	})
}

type scalarHost struct{ Host }

func (s scalarHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	return burst(len(bufs), ErrEmpty, func(i int) (err error) {
		lens[i], err = s.Pop(bufs[i])
		return err
	})
}

func (s scalarHost) PushBatch(frames [][]byte) (int, error) {
	return burst(len(frames), ErrFull, func(i int) error { return s.Push(frames[i]) })
}

// NotifyHost is a Host whose backend can block at the idle edge instead
// of polling on a timer. With doorbells it publishes a wake threshold
// ("ring me only when new transmit work crosses my consumer position",
// event-idx) instead of taking a doorbell per batch, trading boundary
// crossings for a short arming handshake; a polling-mode transport parks
// the backend on the transmit producer index instead (see Parker).
//
// The channel and the threshold are hints, never trusted state: a guest
// that lies about (or ignores) the event index can delay the wakeup,
// which is why every wait on NotifyChan must be time-bounded. It can
// never corrupt the ring — consuming work still goes through the
// validated Pop path.
type NotifyHost interface {
	// ArmNotify publishes the wake threshold at the current consumer
	// position and reports whether work is already waiting (the
	// lost-wakeup recheck): true means poll again instead of blocking.
	ArmNotify() bool
	// SuppressNotify withdraws the threshold while the pump actively
	// polls, eliding peer doorbells under sustained load.
	SuppressNotify()
	// NotifyChan returns the trigger to wait on once armed: the doorbell,
	// or the park wake of a polling-mode transport. Re-fetched before
	// every wait: reincarnation replaces the bell.
	NotifyChan() <-chan struct{}
}

// Parker is carried by the empty result of a transport whose receive
// ring an idle poller can park on: the error RecvBatch returns from an
// empty ring Is ErrEmpty and, on such a transport, also a Parker. It
// travels in the error, not in a further optional interface, so that it
// survives wrappers that implement exactly BatchGuest.
//
// The wake is the simulation of a polling core noticing the producer's
// index store, not a doorbell: it costs nothing in the model, it is a
// hint (frames are still consumed through the validated RecvBatch), and
// every wait on it is bounded by WaitBound.
type Parker interface {
	// Park registers wake — capacity 1, poked after every producer
	// index store — and reports whether frames already wait (the
	// lost-wakeup re-check): true means poll again instead of blocking.
	Park(wake chan struct{}) bool
	// Unpark withdraws the wake while the poller is busy anyway.
	Unpark()
}

const (
	// pumpSpin is the pump's busy-poll budget: consecutive empty polls
	// before it arms its wake and blocks. Host polls are free in the
	// model, and a budget that outlasts the peer's reply keeps an
	// event-idx pump from re-arming (one charged doorbell) mid-exchange.
	pumpSpin = 256
	// pumpYield is how many of those polls run back to back; past it
	// each poll yields the processor, so the spin cannot starve the
	// goroutines it is waiting for.
	pumpYield = 64
	// WaitBound bounds every idle wait on the datapath, armed or not. A
	// wake is a hint a peer controls (it can be late, lost to a retired
	// ring, or never come), and transports with nothing to wait on sleep
	// this long between polls — so it is the worst latency an idle edge
	// adds, and the longest a stopped or fail-deaded poller stays around.
	WaitBound = 200 * time.Microsecond
)

// Waiter blocks one idle poller until something wakes it. It owns the
// poller's only timer, re-armed per wait instead of allocated per wait.
// The zero value is ready; not safe for concurrent use.
type Waiter struct{ t *time.Timer }

// Wait blocks until a or b fires (a nil channel never does), stop
// closes, or d passes. It reports false once stop closed.
func (w *Waiter) Wait(stop, a, b <-chan struct{}, d time.Duration) bool {
	if w.t == nil {
		w.t = time.NewTimer(d)
	} else {
		w.t.Reset(d)
	}
	live := true
	select {
	case <-stop:
		live = false
	case <-a:
	case <-b:
	case <-w.t.C:
		return true
	}
	if !w.t.Stop() {
		select { // fired between the select and Stop: keep C empty for Reset
		case <-w.t.C:
		default:
		}
	}
	return live
}

// BufFrame is a trivial Frame over a private byte slice.
type BufFrame struct {
	B        []byte
	OnFree   func()
	released atomic.Bool
}

// Bytes returns the frame contents.
func (f *BufFrame) Bytes() []byte { return f.B }

// Release invokes OnFree once, even under concurrent callers.
func (f *BufFrame) Release() {
	if !f.released.CompareAndSwap(false, true) {
		return
	}
	if f.OnFree != nil {
		f.OnFree()
	}
}

// Pump shuttles frames between a device backend and a simnet port from
// one polling goroutine per queue, mirroring a host device model thread
// per queue. Worker q drains queue q's transmit ring onto the wire, so
// queues progress independently; worker 0 also owns the wire's receive
// side and steers what it delivers (see steering). Polling is the paper's
// default (no notifications); a worker with nothing to move blocks on its
// ladder instead of burning a core.
type Pump struct {
	stop chan struct{}
	wg   sync.WaitGroup
	// txFrames / rxFrames count frames moved in each direction. They are
	// atomics, not mutex-guarded fields: accounting sits on the per-burst
	// hot path and must not add a lock acquisition to every burst — and
	// they are written only when frames moved, because spinning workers
	// (and the peer's pump) share the line: a store per empty poll costs
	// every poller a cacheline handoff.
	txFrames atomic.Uint64
	rxFrames atomic.Uint64
	running  atomic.Int32
}

// StartPump begins shuttling between h and port until Stop: the
// one-queue case of StartMultiPump.
func StartPump(h Host, port *simnet.Port) *Pump {
	return StartMultiPump([]BatchHost{UpgradeHost(h)}, port)
}

// StartMultiPump begins pumping every queue of hosts against port, one
// goroutine per queue. The per-queue backends must belong to one device,
// so that fate is shared via the transport's latch: each worker returns
// on its own terminal error, and the wire is drained for as long as queue
// 0's backend lives. hosts must be non-empty.
func StartMultiPump(hosts []BatchHost, port *simnet.Port) *Pump {
	if len(hosts) == 0 {
		panic("nic: StartMultiPump needs at least one queue")
	}
	p := &Pump{stop: make(chan struct{})}
	p.wg.Add(len(hosts))
	p.running.Add(int32(len(hosts)))
	go p.run(hosts[0], port, newSteering(hosts), newLadder(hosts[0], port.Wake(), p.stop))
	for _, h := range hosts[1:] {
		go p.run(h, port, nil, newLadder(h, nil, p.stop))
	}
	return p
}

// Running reports how many pump goroutines are still alive: the queue
// count while the device lives, zero after Stop — or earlier, when the
// device fail-deads and every worker collects itself (tests use it as a
// goroutine-leak gauge, the restart drills poll it before reincarnating).
func (p *Pump) Running() int { return int(p.running.Load()) }

const (
	// pumpBurst bounds the frames moved per direction per loop iteration.
	pumpBurst = 64
	// rxQueueDepth bounds each queue's carry-over of steered frames its
	// receive ring had no room for. Two bursts of slack absorb a guest
	// that is briefly behind; beyond that the queue is genuinely behind
	// and its frames drop (the device's prerogative — DoS is out of the
	// threat model).
	rxQueueDepth = 2 * pumpBurst
)

// ladder is one pump goroutine's idle state: spin the busy-poll budget,
// then (on notify-capable transports) arm the wake threshold with the
// lost-wakeup recheck, then block until the transport's wake, the wire's
// delivery signal, stop, or WaitBound — whichever comes first. The wait
// is always time-bounded: the guest controls when its wake fires, never
// whether this goroutine polls again or can be collected.
type ladder struct {
	nh    NotifyHost      // nil: no wake threshold to arm
	wire  <-chan struct{} // the port's delivery signal; nil for a worker that does not own the wire
	stop  <-chan struct{}
	w     Waiter
	idle  int
	armed bool
}

// newLadder builds the ladder for one goroutine polling h and, when wire
// is non-nil, the port behind it.
func newLadder(h Host, wire, stop <-chan struct{}) *ladder {
	nh, _ := h.(NotifyHost)
	return &ladder{nh: nh, wire: wire, stop: stop}
}

// worked resets the ladder after a productive poll, withdrawing the wake
// threshold while the pump is keeping up anyway.
func (l *ladder) worked() {
	if l.armed {
		l.nh.SuppressNotify()
		l.armed = false
	}
	l.idle = 0
}

// wait takes one idle step and reports false once the pump was stopped.
func (l *ladder) wait() bool {
	l.idle++
	if l.idle <= pumpSpin {
		if l.idle > pumpYield {
			runtime.Gosched()
		}
		return true
	}
	var bell <-chan struct{}
	if l.nh != nil {
		if !l.armed && l.nh.ArmNotify() {
			return true // work raced in while arming: poll again
		}
		l.armed = true
		// Re-fetched before every wait: reincarnation replaces the bell.
		bell = l.nh.NotifyChan()
	}
	return l.w.Wait(l.stop, bell, l.wire, WaitBound)
}

// txBurst is the buffer set one transmit drain reuses.
type txBurst struct {
	bufs [][]byte
	lens []int
}

func newTxBurst(frameCap int) *txBurst {
	b := &txBurst{bufs: make([][]byte, pumpBurst), lens: make([]int, pumpBurst)}
	for i := range b.bufs {
		b.bufs[i] = make([]byte, frameCap)
	}
	return b
}

// drain moves one burst of guest transmit frames onto the wire with one
// batched pop, returning how many frames the backend handed over and how
// many the wire took. A non-nil error is terminal (ErrClosed: the device
// fail-deaded) and collects the calling pump — polling a dead device
// forever would leak its goroutine until someone remembered to call Stop.
func (b *txBurst) drain(h BatchHost, port *simnet.Port) (popped int, sent uint64, err error) {
	n, err := h.PopBatch(b.bufs, b.lens)
	// Identity before errors.Is, which pays a reflective comparability
	// test and an unwrap walk on every empty poll; a wrapped or
	// Parker-carrying empty result still matches through the fallback.
	if err != nil && err != ErrEmpty && !errors.Is(err, ErrEmpty) {
		return 0, 0, err
	}
	for i := 0; i < n; i++ {
		if port.Send(b.bufs[i][:b.lens[i]]) == nil {
			sent++
		}
	}
	return n, sent, nil
}

// steering is the receive half worker 0 runs as the sole owner of the
// wire: it classifies each inbound frame by FlowHash and keeps, per
// queue, the frames that queue's receive ring has not accepted yet. A
// queue whose guest is slow to post receive buffers fills its own
// carry-over and then drops its own frames; it never delays another
// queue's delivery, as an RSS-capable NIC keeps one backlogged queue from
// head-of-line blocking the rest.
type steering []rxQueue

// rxQueue is one queue's receive state, padded to a cache line: the
// carry-over's length is stored on every burst, and a smaller heap object
// shares its line with whatever the allocator placed beside it — another
// pump's, for one (measured: echo-small op_lo_us 24 → 32 µs unpadded).
type rxQueue struct {
	h        BatchHost
	frameCap int
	carry    [][]byte // at most rxQueueDepth frames
	_        [16]byte
}

func newSteering(hosts []BatchHost) steering {
	s := make(steering, len(hosts))
	for q, h := range hosts {
		s[q] = rxQueue{h: h, frameCap: h.FrameCap(), carry: make([][]byte, 0, rxQueueDepth)}
	}
	return s
}

// deliver takes one burst off the wire and makes one non-blocking push
// per queue that has frames waiting, carrying over what a full ring
// refused. It returns the frames taken off the wire and the frames the
// backends accepted.
func (s steering) deliver(port *simnet.Port) (got int, pushed uint64) {
	for ; got < pumpBurst; got++ {
		f, ok := port.Recv()
		if !ok {
			break
		}
		q := &s[QueueFor(f, len(s))]
		// A frame the ring cannot carry (any peer on the switch can send
		// one; the backend would refuse the whole burst it rides in) and
		// a frame for a queue that is rxQueueDepth behind drop alone.
		if len(f) > q.frameCap || len(q.carry) == rxQueueDepth {
			continue
		}
		q.carry = append(q.carry, f)
	}
	for i := range s {
		q := &s[i]
		if len(q.carry) == 0 {
			continue
		}
		n, err := q.h.PushBatch(q.carry)
		pushed += uint64(n)
		if err != nil && err != ErrFull && !errors.Is(err, ErrFull) {
			n = len(q.carry) // terminal: frames for a dead queue are drops
		}
		rest := copy(q.carry, q.carry[n:])
		clear(q.carry[rest:])
		q.carry = q.carry[:rest]
	}
	return got, pushed
}

// run is worker q: rx is the wire's receive half in worker 0 and nil in
// every other.
func (p *Pump) run(h BatchHost, port *simnet.Port, rx steering, idle *ladder) {
	defer p.wg.Done()
	defer p.running.Add(-1)
	tx := newTxBurst(h.FrameCap())
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		// Guest -> network.
		moved, sent, err := tx.drain(h, port)
		if err != nil {
			return
		}
		if sent > 0 {
			p.txFrames.Add(sent)
		}
		// Network -> guest. A dead backend surfaces on the next drain.
		if rx != nil {
			got, pushed := rx.deliver(port)
			if pushed > 0 {
				p.rxFrames.Add(pushed)
			}
			moved += got + int(pushed)
		}
		if moved > 0 {
			idle.worked()
		} else if !idle.wait() {
			return
		}
	}
}

// Counts returns frames pumped across all queues (tx = guest->net, rx =
// net->guest).
func (p *Pump) Counts() (tx, rx uint64) {
	return p.txFrames.Load(), p.rxFrames.Load()
}

// Stop halts every pump goroutine and waits. Idempotent.
func (p *Pump) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}
