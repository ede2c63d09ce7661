package nic

// Multi-queue NIC contract and pump: N independent queues behind one
// device, with guest-computed flow steering on transmit and RSS-style
// steering of inbound traffic across per-queue device threads.
//
// The queues share nothing on the datapath — no common lock, no common
// index — so senders pinned to different queues scale. What they do
// share is fate: the underlying transport (safering.MultiEndpoint) wires
// every queue to one fail-dead latch, so a protocol violation observed
// on any queue surfaces as ErrClosed on all of them.

import (
	"errors"
	"sync"
	"sync/atomic"

	"confio/internal/simnet"
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

// MultiPump shuttles frames between an N-queue device backend and a
// simnet port, fully sharded: one transmit worker per queue (each
// drains only its own ring, so queues progress independently), one
// receive steering worker that owns the wire and classifies inbound
// frames by FlowHash, and one receive delivery worker per queue fed
// through a bounded channel — so a queue whose guest is slow to post
// receive buffers backpressures (and eventually drops) alone instead of
// head-of-line blocking every other queue's delivery, exactly as an
// RSS-capable NIC spreads flows across device threads.
type MultiPump struct {
	stop chan struct{}
	wg   sync.WaitGroup

	txFrames atomic.Uint64
	rxFrames atomic.Uint64
	perTx    []atomic.Uint64
	perRx    []atomic.Uint64

	// Dead-queue tracking: a queue whose backend returns a terminal
	// error is marked dead; when every queue is dead the RX steering
	// worker collects itself too (closing the per-queue channels, which
	// collects the delivery workers), so a fail-deaded device leaves
	// zero pump goroutines behind without anyone calling Stop.
	deadQ   []atomic.Bool
	nDead   atomic.Int32
	running atomic.Int32
}

// rxQueueDepth bounds each queue's steering-to-delivery channel. Two
// bursts of slack absorb scheduling jitter; beyond that the queue is
// genuinely behind and frames drop (the device's prerogative — DoS is
// out of the threat model).
const rxQueueDepth = 2 * pumpBurst

// StartMultiPump begins pumping every queue of hosts against port. The
// per-queue backends must belong to one device (so fate is shared via
// the transport's latch); hosts must be non-empty.
func StartMultiPump(hosts []BatchHost, port *simnet.Port) *MultiPump {
	if len(hosts) == 0 {
		panic("nic: StartMultiPump needs at least one queue")
	}
	p := &MultiPump{
		stop:  make(chan struct{}),
		perTx: make([]atomic.Uint64, len(hosts)),
		perRx: make([]atomic.Uint64, len(hosts)),
		deadQ: make([]atomic.Bool, len(hosts)),
	}
	chans := make([]chan []byte, len(hosts))
	for i := range chans {
		chans[i] = make(chan []byte, rxQueueDepth)
	}
	for i, h := range hosts {
		p.wg.Add(2)
		p.running.Add(2)
		go p.runTX(i, h, port, newLadder(h, nil, p.stop))
		go p.runRXWorker(i, h, chans[i])
	}
	p.wg.Add(1)
	p.running.Add(1)
	go p.runRX(len(hosts), port, newLadder(nil, port.Wake(), p.stop), chans)
	return p
}

// Running reports how many pump goroutines are still alive. It reaches
// zero after Stop — or earlier, when the whole device fail-deads and
// every goroutine collects itself (the restart-after-death tests poll
// it before reincarnating).
func (p *MultiPump) Running() int { return int(p.running.Load()) }

// markDead records queue q's backend as terminally closed.
func (p *MultiPump) markDead(q int) {
	if !p.deadQ[q].Swap(true) {
		p.nDead.Add(1)
	}
}

// runTX drains one queue's transmit ring onto the wire, idling on the
// shared ladder.
func (p *MultiPump) runTX(q int, h BatchHost, port *simnet.Port, idle *ladder) {
	defer p.wg.Done()
	defer p.running.Add(-1)
	tx := newTxBurst(h.FrameCap())
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		popped, sent, err := tx.drain(h, port)
		if err != nil {
			p.markDead(q)
			return // queue (or whole device) is dead; nothing to pump
		}
		if popped == 0 {
			if !idle.wait() {
				return
			}
			continue
		}
		idle.worked()
		p.txFrames.Add(sent)
		p.perTx[q].Add(sent)
	}
}

// runRX is the steering worker: the sole owner of the wire's receive
// side. It classifies each inbound frame by FlowHash and hands it to
// the owning queue's delivery worker over a bounded channel with a
// non-blocking send — a backlogged or dead queue drops its own frames
// and never stalls steering (or, transitively, any other queue). On
// exit it closes every channel, which collects the delivery workers.
func (p *MultiPump) runRX(queues int, port *simnet.Port, idle *ladder, chans []chan []byte) {
	defer p.wg.Done()
	defer p.running.Add(-1)
	defer func() {
		for _, ch := range chans {
			close(ch)
		}
	}()
	for {
		select {
		case <-p.stop:
			return
		default:
		}
		if int(p.nDead.Load()) == queues {
			return // whole device dead: every TX goroutine saw ErrClosed
		}
		got := 0
		for got < pumpBurst {
			f, ok := port.Recv()
			if !ok {
				break
			}
			got++
			q := QueueFor(f, queues)
			if p.deadQ[q].Load() {
				continue // frames for a dead queue are drops
			}
			select {
			case chans[q] <- f:
			default: // queue backlogged: drop, don't head-of-line block
			}
		}
		if got > 0 {
			idle.worked()
		} else if !idle.wait() {
			return
		}
	}
}

// runRXWorker delivers one queue's share of inbound traffic: it blocks
// on the queue's channel, accumulates whatever burst has built up, and
// pushes it to the backend. Exits when the channel closes (steering
// stopped), the pump stops, or its queue dies.
func (p *MultiPump) runRXWorker(q int, h BatchHost, ch chan []byte) {
	defer p.wg.Done()
	defer p.running.Add(-1)
	burst := make([][]byte, 0, pumpBurst)
	for {
		var f []byte
		var ok bool
		select {
		case <-p.stop:
			return
		case f, ok = <-ch:
			if !ok {
				return
			}
		}
		burst = append(burst[:0], f)
	drain:
		for len(burst) < pumpBurst {
			select {
			case f2, ok2 := <-ch:
				if !ok2 {
					break drain
				}
				burst = append(burst, f2)
			default:
				break drain
			}
		}
		n, err := pushRetry(h, burst)
		p.rxFrames.Add(uint64(n))
		p.perRx[q].Add(uint64(n))
		if errors.Is(err, ErrClosed) {
			p.markDead(q) // steering stops feeding a dead queue
		}
		if p.deadQ[q].Load() {
			return
		}
	}
}

// Counts returns total frames pumped across all queues.
func (p *MultiPump) Counts() (tx, rx uint64) {
	return p.txFrames.Load(), p.rxFrames.Load()
}

// QueueCounts returns per-queue pumped-frame counts, index-aligned with
// the device's queues.
func (p *MultiPump) QueueCounts() (tx, rx []uint64) {
	tx = make([]uint64, len(p.perTx))
	rx = make([]uint64, len(p.perRx))
	for i := range p.perTx {
		tx[i] = p.perTx[i].Load()
		rx[i] = p.perRx[i].Load()
	}
	return tx, rx
}

// Stop halts every pump goroutine and waits. Idempotent.
func (p *MultiPump) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.wg.Wait()
}
