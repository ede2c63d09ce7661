package nic_test

import (
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/simnet"
)

// spyHost is an always-empty notify-capable backend that reports when
// the pump blocks on it and when the pump next acts: a frame pushed into
// it, or — while watchPolls is set — a poll of it.
type spyHost struct {
	// armed is signalled by the first NotifyChan after each act, that is
	// once per idle period, after the pump's spin budget is spent and
	// immediately before it blocks.
	armed      chan struct{}
	acted      chan time.Time
	wake       chan struct{}
	resignal   atomic.Bool
	watchPolls atomic.Bool
}

func newSpyHost() *spyHost {
	h := &spyHost{armed: make(chan struct{}, 1), acted: make(chan time.Time, 1), wake: make(chan struct{}, 1)}
	h.resignal.Store(true)
	return h
}

func (h *spyHost) Pop([]byte) (int, error) { return 0, nic.ErrEmpty }
func (h *spyHost) FrameCap() int           { return 2048 }
func (h *spyHost) Push(f []byte) error     { _, err := h.PushBatch([][]byte{f}); return err }
func (h *spyHost) ArmNotify() bool         { return false }
func (h *spyHost) SuppressNotify()         {}

func (h *spyHost) act() {
	h.acted <- time.Now()
	h.resignal.Store(true)
}

func (h *spyHost) PopBatch([][]byte, []int) (int, error) {
	if h.watchPolls.Swap(false) {
		h.act()
	}
	return 0, nic.ErrEmpty
}

func (h *spyHost) PushBatch(frames [][]byte) (int, error) {
	h.act()
	return len(frames), nil
}

func (h *spyHost) NotifyChan() <-chan struct{} {
	if h.resignal.Swap(false) {
		h.armed <- struct{}{}
	}
	return h.wake
}

// fastestWake runs trials of: wait until the poller is about to block,
// cause the event, and time how long the poller took to act on it. The
// poller armed its timer with nic.WaitBound after the signal the trial
// waits for, and timers never fire early — so any trial faster than the
// bound was woken by the event, not the timer. Noise only ever slows a
// trial down, which is why the minimum is what gets asserted.
func fastestWake(t *testing.T, trials int, aboutToBlock <-chan struct{}, event func(), acted <-chan time.Time) time.Duration {
	t.Helper()
	fastest := time.Hour
	for i := 0; i < trials; i++ {
		select {
		case <-aboutToBlock:
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: poller never went idle", i)
		}
		t0 := time.Now()
		event()
		select {
		case t1 := <-acted:
			if d := t1.Sub(t0); d < fastest {
				fastest = d
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("trial %d: poller never acted on the event", i)
		}
	}
	return fastest
}

// TestWireDeliveryWakesParkedPump: a pump that spun down and blocked is
// woken by the frame's arrival at its port, not by its next timer.
func TestWireDeliveryWakesParkedPump(t *testing.T) {
	net := simnet.New()
	port, peer := net.NewPort(), net.NewPort()
	h := newSpyHost()
	pump := nic.StartPump(h, port)
	defer pump.Stop()
	f := ethFrame([6]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}, [6]byte{2, 0, 0, 0, 0, 1}, []byte("wake"))
	fastest := fastestWake(t, 50, h.armed, func() {
		if err := peer.Send(f); err != nil {
			t.Error(err)
		}
	}, h.acted)
	t.Logf("fastest wire → push: %v (wait bound %v)", fastest, nic.WaitBound)
	if fastest >= nic.WaitBound/2 {
		t.Fatalf("fastest of 50 deliveries reached the backend after %v: the pump is waking on its %v timer, not on the wire", fastest, nic.WaitBound)
	}
}

// TestTransportWakeWakesParkedPump: the same for the transport side —
// whatever NotifyChan returns (doorbell or park wake) ends the wait.
func TestTransportWakeWakesParkedPump(t *testing.T) {
	h := newSpyHost()
	pump := nic.StartPump(h, simnet.New().NewPort())
	defer pump.Stop()
	fastest := fastestWake(t, 50, h.armed, func() {
		h.watchPolls.Store(true)
		h.wake <- struct{}{}
	}, h.acted)
	t.Logf("fastest wake → poll: %v (wait bound %v)", fastest, nic.WaitBound)
	if fastest >= nic.WaitBound/2 {
		t.Fatalf("fastest of 50 wakes polled the backend after %v: the pump is waking on its %v timer, not on its wake", fastest, nic.WaitBound)
	}
}

// TestStopCollectsParkedWorkers: Stop reaches every worker inside its
// wait — worker 0 blocked on its wake and the wire, the others on their
// wake alone — not after it.
func TestStopCollectsParkedWorkers(t *testing.T) {
	const queues = 3
	hosts := make([]nic.BatchHost, queues)
	for q := range hosts {
		hosts[q] = newSpyHost()
	}
	pump := nic.StartMultiPump(hosts, simnet.New().NewPort())
	if n := pump.Running(); n != queues {
		t.Fatalf("%d pump goroutines after start, want %d", n, queues)
	}
	for _, h := range hosts { // every worker spun down and is about to block
		select {
		case <-h.(*spyHost).armed:
		case <-time.After(5 * time.Second):
			t.Fatal("a worker never went idle")
		}
	}
	stopped := make(chan struct{})
	go func() {
		pump.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not collect the parked pump")
	}
	if n := pump.Running(); n != 0 {
		t.Fatalf("%d pump goroutines alive after Stop", n)
	}
}

// TestWaiterReusesItsTimer: a wait ended by a wake leaves the timer
// clean for the next wait, and repeated waits allocate nothing.
func TestWaiterReusesItsTimer(t *testing.T) {
	var w nic.Waiter
	stop := make(chan struct{})
	wake := make(chan struct{}, 1)
	wake <- struct{}{}
	if !w.Wait(stop, wake, nil, time.Hour) { // creates the timer
		t.Fatal("Wait reported stop")
	}
	allocs := testing.AllocsPerRun(100, func() {
		wake <- struct{}{}
		if !w.Wait(stop, nil, wake, time.Hour) {
			t.Fatal("Wait reported stop")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.0f allocs per wait, want 0", allocs)
	}
	start := time.Now()
	if !w.Wait(stop, wake, nil, 2*time.Millisecond) {
		t.Fatal("Wait reported stop")
	}
	if d := time.Since(start); d < 2*time.Millisecond {
		t.Fatalf("timed wait returned after %v: a stale expiry was left in the timer", d)
	}
	close(stop)
	if w.Wait(stop, wake, nil, time.Hour) {
		t.Fatal("Wait did not report stop")
	}
}
