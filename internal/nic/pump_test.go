package nic

import (
	"sync"
	"testing"
	"time"
	"unsafe"

	"confio/internal/simnet"
)

// queueHost is a spy backend for one queue of a multi-queue device: it
// hands out the transmit frames it was given, one per poll, and either
// takes every frame pushed at it or — full — refuses them all, recording
// the largest burst the pump ever offered.
type queueHost struct {
	full bool

	mu         sync.Mutex
	tx         [][]byte
	pushed     int
	maxOffered int
}

func (h *queueHost) FrameCap() int           { return 2048 }
func (h *queueHost) Pop([]byte) (int, error) { panic("the pump pops in batches") }
func (h *queueHost) Push([]byte) error       { panic("the pump pushes in batches") }

func (h *queueHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.tx) == 0 {
		return 0, ErrEmpty
	}
	lens[0] = copy(bufs[0], h.tx[0])
	h.tx = h.tx[1:]
	return 1, nil
}

func (h *queueHost) PushBatch(frames [][]byte) (int, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.maxOffered = max(h.maxOffered, len(frames))
	if h.full {
		return 0, ErrFull
	}
	h.pushed += len(frames)
	return len(frames), nil
}

func (h *queueHost) counts() (pushed, maxOffered int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.pushed, h.maxOffered
}

// frameFor returns a broadcast frame that steers to queue q of n,
// tagged so the test can tell which queue's traffic it is.
func frameFor(t *testing.T, q, n int, tag byte) []byte {
	t.Helper()
	f := make([]byte, 15)
	copy(f[0:6], simnet.Broadcast[:])
	f[6], f[12], f[13], f[14] = 2, 0x88, 0xB5, tag
	for b := 0; b < 256; b++ {
		if f[11] = byte(b); QueueFor(f, n) == q {
			return f
		}
	}
	t.Fatalf("no source address steers to queue %d of %d", q, n)
	return nil
}

// TestBackloggedQueueIsIsolated: a queue whose receive ring never has
// room holds at most rxQueueDepth frames in the pump and drops the rest;
// every frame steered to its sibling is delivered meanwhile, both
// queues' transmit rings keep draining, and Stop collects every worker.
func TestBackloggedQueueIsIsolated(t *testing.T) {
	const perQueue = 3 * rxQueueDepth
	hosts := []*queueHost{{}, {full: true}}
	net := simnet.New()
	port, peer := net.NewPort(), net.NewPort()
	pump := StartMultiPump([]BatchHost{hosts[0], hosts[1]}, port)
	defer pump.Stop()
	if n := pump.Running(); n != len(hosts) {
		t.Fatalf("%d pump goroutines after start, want %d", n, len(hosts))
	}
	await := func(what string, done func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	in := [2][]byte{frameFor(t, 0, 2, 0xA0), frameFor(t, 1, 2, 0xA1)}
	for i := 0; i < perQueue; i++ {
		for q := range in {
			if err := peer.Send(in[q]); err != nil {
				t.Fatal(err)
			}
		}
		// Stay inside the port's buffering: tail drops on the wire are not
		// what is under test.
		await("the wire to drain", func() bool { return port.Pending() < 64 })
	}
	// The pump counts a burst after the backend took it.
	await("queue 0's frames", func() bool { _, rx := pump.Counts(); return rx == perQueue })
	if n, _ := hosts[0].counts(); n != perQueue {
		t.Fatalf("queue 0 took %d frames, want every one of its %d", n, perQueue)
	}
	if n, offered := hosts[1].counts(); n != 0 || offered != rxQueueDepth {
		t.Fatalf("full queue: %d frames accepted, carry-over peaked at %d, want 0 and the bound %d", n, offered, rxQueueDepth)
	}

	// With queue 1 still backlogged, both transmit rings drain.
	const perTx = 50
	for q, h := range hosts {
		h.mu.Lock()
		for i := 0; i < perTx; i++ {
			h.tx = append(h.tx, frameFor(t, q, 2, byte(q)))
		}
		h.mu.Unlock()
	}
	var seen [2]int
	await("both transmit rings to drain", func() bool {
		for {
			f, ok := peer.Recv()
			if !ok {
				return seen == [2]int{perTx, perTx}
			}
			seen[f[14]]++
		}
	})
	await("the transmit count", func() bool { tx, _ := pump.Counts(); return tx == 2*perTx })
	if _, offered := hosts[1].counts(); offered != rxQueueDepth {
		t.Fatalf("carry-over grew to %d past the bound %d", offered, rxQueueDepth)
	}

	pump.Stop()
	if n := pump.Running(); n != 0 {
		t.Fatalf("%d pump goroutines alive after Stop", n)
	}
}

// TestRxQueueFillsACacheLine pins rxQueue to whole cache lines at
// line-aligned addresses: worker 0 stores a carry-over length per burst,
// and kept in a 24-byte heap object that word shared its line with
// neighbouring allocations (echo-small op_lo_us +8 µs in 9 of 10 runs).
func TestRxQueueFillsACacheLine(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(rxQueue{}); sz%line != 0 {
		t.Fatalf("rxQueue is %d bytes: not a multiple of the %d-byte cache line", sz, line)
	}
	for n := 1; n <= 8; n++ {
		hosts := make([]BatchHost, n)
		for q := range hosts {
			hosts[q] = &queueHost{}
		}
		s := newSteering(hosts)
		if off := uintptr(unsafe.Pointer(&s[0])) % line; off != 0 {
			t.Fatalf("%d queues allocated %d bytes into a cache line", n, off)
		}
	}
}
