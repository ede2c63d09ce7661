// Package nic defines the transport-neutral NIC contract that every
// confidential I/O interface in this repository implements — the paper's
// safe ring as well as the virtio and netvsc baselines — plus the pump
// that connects a host-side device backend to the simulated physical
// network, and the Driver every long-lived poller in the repository runs
// on.
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

// Loop is one long-lived poller as a Driver runs it: a body and its idle
// policy. Every number in it is a constant where the loop is started
// (DESIGN.md §11, "One idle loop", gives each one's reason).
type Loop struct {
	// Step polls once. It reports whether anything moved, the earliest
	// instant it has timed work (zero: none; it bounds the wait), and a
	// terminal error, which ends the loop and is kept for the owner.
	Step func() (progress bool, next time.Time, err error)
	// Spin is how many more polls follow an empty one before the loop
	// parks and waits; each one past the first Yield of them yields the
	// processor first.
	Spin, Yield int
	// Park, when set, arms the loop's wakes at the idle edge and reports
	// whether work already waits (the lost-wakeup re-check): true polls
	// again instead of blocking. Unpark withdraws them once a poll makes
	// progress again.
	Park   func() bool
	Unpark func()
	// Wakes, when set, returns the channels a wait ends on (nil never
	// fires). It is fetched before every wait: reincarnation replaces a
	// bell.
	Wakes func() (a, b <-chan struct{})
	// Bound is the longest wait: WaitBound behind a wake a peer
	// controls, the period of a scanner that has none.
	Bound time.Duration
}

// Every is the loop of a periodic scanner: scan, then wait period.
func Every(period time.Duration, scan func()) Loop {
	return Loop{Bound: period, Step: func() (bool, time.Time, error) {
		scan()
		return false, time.Time{}, nil
	}}
}

// Driver runs loops, each on a goroutine of its own, until Stop or the
// loop's terminal error. The zero value is ready.
type Driver struct {
	mu      sync.Mutex
	stop    chan struct{}
	stopped sync.Once
	err     error
	wg      sync.WaitGroup
	running atomic.Int32
}

// Go starts l.
func (d *Driver) Go(l Loop) {
	d.wg.Add(1)
	d.running.Add(1)
	go d.run(l, d.stopChan())
}

func (d *Driver) stopChan() chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.stop == nil {
		d.stop = make(chan struct{})
	}
	return d.stop
}

// Stop ends every loop and waits for them. Idempotent, and safe from
// several goroutines at once.
func (d *Driver) Stop() {
	d.stopped.Do(func() { close(d.stopChan()) })
	d.wg.Wait()
}

// Err returns the first terminal error a loop ended on, if any.
func (d *Driver) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Running reports how many loops are still alive: zero after Stop, or
// once every loop has ended on its error.
func (d *Driver) Running() int { return int(d.running.Load()) }

// yield is how a spinning loop gives up the processor; the driver's test
// counts the calls.
var yield = runtime.Gosched

// run is one loop's goroutine. Its idle state lives on its stack: a busy
// poll stores to nothing another goroutine reads.
func (d *Driver) run(l Loop, stop <-chan struct{}) {
	defer d.wg.Done()
	defer d.running.Add(-1)
	var w Waiter
	idle, parked := 0, false
	for {
		select {
		case <-stop:
			return
		default:
		}
		progress, next, err := l.Step()
		if err != nil {
			d.mu.Lock()
			if d.err == nil {
				d.err = err
			}
			d.mu.Unlock()
			return
		}
		if progress {
			if parked {
				l.Unpark()
				parked = false
			}
			idle = 0
			continue
		}
		if idle++; idle <= l.Spin {
			if idle > l.Yield {
				yield()
			}
			continue
		}
		if !parked && l.Park != nil {
			if l.Park() {
				continue // work raced in while parking: poll again
			}
			parked = true
		}
		var a, b <-chan struct{}
		if l.Wakes != nil {
			a, b = l.Wakes()
		}
		bound := l.Bound
		if !next.IsZero() {
			bound = min(bound, time.Until(next))
		}
		if !w.Wait(stop, a, b, bound) {
			return
		}
	}
}

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
// default (no notifications); a worker with nothing to move waits on its
// wakes instead of burning a core. A worker ends on its queue's terminal
// error (the device fail-deaded), so Running doubles as the goroutine-leak
// gauge the restart drills poll before reincarnating.
type Pump struct{ Driver }

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
	p := new(Pump)
	for q, h := range hosts {
		w := newWorker(h, port)
		var wire <-chan struct{}
		if q == 0 {
			w.rx, wire = newSteering(hosts), port.Wake()
		}
		p.Go(w.loop(wire))
	}
	return p
}

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

// worker is one pump goroutine's body: queue q's transmit drain, with
// the buffer set every burst reuses, and — in worker 0 alone — the
// wire's receive side.
type worker struct {
	h    BatchHost
	port *simnet.Port
	bufs [][]byte
	lens []int
	rx   steering
}

func newWorker(h BatchHost, port *simnet.Port) *worker {
	w := &worker{h: h, port: port, bufs: make([][]byte, pumpBurst), lens: make([]int, pumpBurst)}
	for i := range w.bufs {
		w.bufs[i] = make([]byte, h.FrameCap())
	}
	return w
}

// loop is the worker under the pump's idle policy: pumpSpin empty polls,
// then — on a notify-capable transport — the wake threshold armed with
// the lost-wakeup re-check, then a wait on the transport's wake and (in
// worker 0) the wire's delivery signal. The wait is bounded by WaitBound:
// the guest controls when its wake fires, never whether the worker polls
// again or can be collected.
func (w *worker) loop(wire <-chan struct{}) Loop {
	l := Loop{Step: w.step, Spin: pumpSpin, Yield: pumpYield, Bound: WaitBound,
		Wakes: func() (a, b <-chan struct{}) { return nil, wire }}
	if nh, ok := w.h.(NotifyHost); ok {
		l.Park, l.Unpark = nh.ArmNotify, nh.SuppressNotify
		l.Wakes = func() (a, b <-chan struct{}) { return nh.NotifyChan(), wire }
	}
	return l
}

// step moves one burst of guest transmit frames onto the wire with one
// batched pop and, in worker 0, one burst off the wire. An error is
// terminal (ErrClosed: the device fail-deaded) and collects the worker —
// polling a dead device forever would leak its goroutine until someone
// remembered to call Stop. A dead backend's receive side surfaces on the
// next drain.
func (w *worker) step() (bool, time.Time, error) {
	n, err := w.h.PopBatch(w.bufs, w.lens)
	// Identity before errors.Is, which pays a reflective comparability
	// test and an unwrap walk on every empty poll; a wrapped or
	// Parker-carrying empty result still matches through the fallback.
	if err != nil && err != ErrEmpty && !errors.Is(err, ErrEmpty) {
		return false, time.Time{}, err
	}
	for i := 0; i < n; i++ {
		// A frame the wire refuses (a runt, a full or closed port) is
		// dropped there, as a real wire drops it.
		_ = w.port.Send(w.bufs[i][:w.lens[i]])
	}
	if w.rx != nil {
		n += w.rx.deliver(w.port)
	}
	return n > 0, time.Time{}, nil
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
// refused. It returns how many frames moved: taken off the wire plus
// accepted by a backend.
func (s steering) deliver(port *simnet.Port) (moved int) {
	for ; moved < pumpBurst; moved++ {
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
		moved += n
		if err != nil && err != ErrFull && !errors.Is(err, ErrFull) {
			n = len(q.carry) // terminal: frames for a dead queue are drops
		}
		rest := copy(q.carry, q.carry[n:])
		clear(q.carry[rest:])
		q.carry = q.carry[:rest]
	}
	return moved
}
