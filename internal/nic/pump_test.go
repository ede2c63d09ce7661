package nic

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
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
		t.Fatalf("%d queues served after start, want %d", n, len(hosts))
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
	// The backend is the count: queue 0 takes every one of its frames.
	await("queue 0's frames", func() bool { n, _ := hosts[0].counts(); return n == perQueue })
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
	if _, offered := hosts[1].counts(); offered != rxQueueDepth {
		t.Fatalf("carry-over grew to %d past the bound %d", offered, rxQueueDepth)
	}

	pump.Stop()
	if n := pump.Running(); n != 0 {
		t.Fatalf("%d queues still served after Stop", n)
	}
}

// TestRxQueueFillsACacheLine pins rxQueue to whole cache lines at
// line-aligned addresses: queue 0's step stores a carry-over length per
// burst, and kept in a 24-byte heap object that word shared its line with
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

// logHost is a one-queue backend that logs the pump's calls into a
// driver-test fake, beside the driver's yields: "pop" per transmit poll
// (it hands out tx one frame per poll), then "push" per burst it takes at
// least a frame of — at most accept frames — or "refused" per burst it
// has no room for.
type logHost struct {
	log    *fake
	tx     [][]byte
	accept int
}

func (h *logHost) FrameCap() int           { return 2048 }
func (h *logHost) Pop([]byte) (int, error) { panic("the pump pops in batches") }
func (h *logHost) Push([]byte) error       { panic("the pump pushes in batches") }

func (h *logHost) PopBatch(bufs [][]byte, lens []int) (int, error) {
	h.log.record("pop")
	if len(h.tx) == 0 {
		return 0, ErrEmpty
	}
	lens[0] = copy(bufs[0], h.tx[0])
	h.tx = h.tx[1:]
	return 1, nil
}

func (h *logHost) PushBatch(frames [][]byte) (int, error) {
	if h.accept == 0 {
		h.log.record("refused")
		return 0, ErrFull
	}
	h.log.record("push")
	return min(len(frames), h.accept), nil
}

// TestPumpYieldsAfterPush: a step that pushed frames into a guest ring
// leaves one yield due, and the poller pays it at its next step that
// moves nothing — the push's index store readied the guest's parked
// waiter onto the poller's own processor — however many frames went and
// however many pushing steps came first; a step that only popped, an
// empty one and one whose push was refused leave none, so those yield
// only where the idle policy does. The policy here is two spins, the
// second after a yield, then a wait.
func TestPumpYieldsAfterPush(t *testing.T) {
	for _, c := range []struct {
		name     string
		tx, wire int // frames waiting on the transmit ring, on the wire
		accept   int
		want     string
	}{
		{"push", 0, 1, pumpBurst, "pop push pop yield pop yield pop wait"},
		{"partial push", 0, 2, 1, "pop push pop push pop yield pop yield pop wait"},
		{"pop", 1, 0, pumpBurst, "pop pop pop yield pop wait"},
		{"empty", 0, 0, pumpBurst, "pop pop yield pop wait"},
		{"refused", 0, 1, 0, "pop refused pop refused pop refused yield pop refused wait"},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newFake()
			h := &logHost{log: f, accept: c.accept}
			net := simnet.New()
			port, peer := net.NewPort(), net.NewPort()
			frame := frameFor(t, 0, 1, 0xA0)
			for i := 0; i < c.tx; i++ {
				h.tx = append(h.tx, frame)
			}
			for i := 0; i < c.wire; i++ {
				if err := peer.Send(frame); err != nil {
					t.Fatal(err)
				}
			}
			w := newWorker(h, port, new(Pump))
			w.rx = newSteering([]BatchHost{h})
			l := (&poller{ws: []*worker{w}}).loop()
			l.Spin, l.Yield, l.Bound = 2, 1, time.Hour
			l.Wake = func() <-chan struct{} { f.record("wait"); return nil }
			start(t, f, l)
			await(t, "the wait", func() bool { return f.count("wait") == 1 })
			if got := f.calls(); got != c.want {
				t.Fatalf("pump called\n\t%s\nwant\n\t%s", got, c.want)
			}
		})
	}
}

// stingyHost is one queue whose receive ring refuses every third push
// and takes at most two frames of any other, so the pump carries frames
// across bursts. It checks each frame it takes against the sequence the
// wire was sent, reading the bytes the way a transport's copy does.
type stingyHost struct {
	queueHost
	calls   int
	next    uint32
	taken   atomic.Uint32
	corrupt atomic.Bool
}

func (h *stingyHost) PopBatch([][]byte, []int) (int, error) { return 0, ErrEmpty }

func (h *stingyHost) PushBatch(frames [][]byte) (int, error) {
	if h.calls++; h.calls%3 == 0 {
		return 0, ErrFull
	}
	n := min(len(frames), 2)
	for _, f := range frames[:n] {
		if binary.BigEndian.Uint32(f[15:]) != h.next || f[len(f)-1] != byte(h.next) {
			h.corrupt.Store(true)
		}
		h.next++
	}
	h.taken.Add(uint32(n))
	return n, nil
}

// TestSteeringRecyclesCarriedFrames: every frame the pump pushed or
// carried over arrives whole and in order while the wire reuses the
// buffers of the ones already pushed, so the steady state allocates
// nothing per frame. The sender keeps at most 32 frames ahead, so
// nothing drops. Under -race, a frame the pump read after handing it
// back is a race with the sender's delivery into the same buffer.
func TestSteeringRecyclesCarriedFrames(t *testing.T) {
	const warm, frames, ahead = 256, 4096, 32
	h := new(stingyHost)
	net := simnet.New()
	port, peer := net.NewPort(), net.NewPort()
	p := StartMultiPump([]BatchHost{h}, port)
	defer p.Stop()
	f := frameFor(t, 0, 1, 0)
	f = append(f, make([]byte, 64)...)
	var before, after runtime.MemStats
	for i := 0; i < warm+frames; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		for i-int(h.taken.Load()) >= ahead {
			runtime.Gosched()
		}
		binary.BigEndian.PutUint32(f[15:], uint32(i))
		f[len(f)-1] = byte(i)
		if err := peer.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	for int(h.taken.Load()) < warm+frames {
		runtime.Gosched()
	}
	runtime.ReadMemStats(&after)
	if h.corrupt.Load() {
		t.Fatal("a frame reached the ring out of order or with another frame's bytes")
	}
	if a := float64(after.Mallocs-before.Mallocs) / frames; a >= 0.1 {
		t.Fatalf("%.2f allocs per steered frame, want 0: pushed frames not handed back to the wire", a)
	}
}
