package safering

import (
	"fmt"
	"runtime"
	"testing"

	"confio/internal/nic"
)

// allocBatch is the burst size the steady-state allocation gate runs at;
// the acceptance bar is batch >= 16.
const allocBatch = 16

// measureAllocs runs fn through testing.AllocsPerRun with a GC + retry
// shield: sync.Pool contents are dropped at GC, so a collection landing
// mid-measurement can charge a pool refill to fn. A run is accepted when
// any attempt observes the target, which a genuinely allocating path can
// never produce.
func measureAllocs(fn func()) float64 {
	var allocs float64
	for attempt := 0; attempt < 3; attempt++ {
		runtime.GC()
		fn() // re-warm pools after the forced collection
		allocs = testing.AllocsPerRun(50, fn)
		if allocs == 0 {
			return 0
		}
	}
	return allocs
}

// TestSteadyStateZeroAlloc asserts the acceptance criterion directly:
// after warm-up, one full datapath cycle — guest SendBatch, host
// PopBatch, host PushBatch, guest RecvBatch + Release — performs zero
// heap allocations in every data mode. Pooled receive buffers, recycled
// frame headers, and reused per-slot handle scratch make the hot path
// allocation-free; this test is the regression gate that keeps it so.
func TestSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on the instrumented hot path")
	}
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			ep, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())

			frames := make([][]byte, allocBatch)
			for i := range frames {
				frames[i] = frame(512, byte(i))
			}
			bufs := make([][]byte, allocBatch)
			for i := range bufs {
				bufs[i] = make([]byte, cfg.FrameCap())
			}
			lens := make([]int, allocBatch)
			out := make([]*RxFrame, allocBatch)

			cycle := func() {
				if n, err := ep.SendBatch(frames); err != nil || n != allocBatch {
					t.Fatalf("SendBatch = %d, %v", n, err)
				}
				if n, err := hp.PopBatch(bufs, lens); err != nil || n != allocBatch {
					t.Fatalf("PopBatch = %d, %v", n, err)
				}
				if n, err := hp.PushBatch(frames); err != nil || n != allocBatch {
					t.Fatalf("PushBatch = %d, %v", n, err)
				}
				n, err := ep.RecvBatch(out)
				if err != nil || n != allocBatch {
					t.Fatalf("RecvBatch = %d, %v", n, err)
				}
				for i := 0; i < n; i++ {
					out[i].Release()
					out[i] = nil
				}
			}
			for i := 0; i < 8; i++ { // warm the pools and slot scratch
				cycle()
			}
			if allocs := measureAllocs(cycle); allocs != 0 {
				t.Fatalf("steady-state cycle allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}

// TestAdapterSteadyStateZeroAlloc runs the same gate through the
// nic.BatchGuest adapter, covering the []*RxFrame staging scratch that
// bridges the concrete API to the transport-neutral one.
func TestAdapterSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on the instrumented hot path")
	}
	cfg := cfgFor(Inline, CopyOut)
	ep, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	g := &GuestNIC{EP: ep}

	frames := make([][]byte, allocBatch)
	for i := range frames {
		frames[i] = frame(512, byte(i))
	}
	bufs := make([][]byte, allocBatch)
	for i := range bufs {
		bufs[i] = make([]byte, cfg.FrameCap())
	}
	lens := make([]int, allocBatch)
	out := make([]nic.Frame, allocBatch)

	cycle := func() {
		if n, err := g.SendBatch(frames); err != nil || n != allocBatch {
			t.Fatalf("SendBatch = %d, %v", n, err)
		}
		if n, err := hp.PopBatch(bufs, lens); err != nil || n != allocBatch {
			t.Fatalf("PopBatch = %d, %v", n, err)
		}
		if n, err := hp.PushBatch(frames); err != nil || n != allocBatch {
			t.Fatalf("PushBatch = %d, %v", n, err)
		}
		n, err := g.RecvBatch(out)
		if err != nil || n != allocBatch {
			t.Fatalf("RecvBatch = %d, %v", n, err)
		}
		for i := 0; i < n; i++ {
			out[i].Release()
			out[i] = nil
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := measureAllocs(cycle); allocs != 0 {
		t.Fatalf("adapter steady-state cycle allocates %.1f objects/op, want 0", allocs)
	}
}

// TestScalarShimsZeroAlloc holds the scalar calls to the batch calls'
// standard: Send, Pop, Push and Recv are batch-of-one over a one-element
// array that must stay on the stack, so a scalar lap allocates nothing in
// any data mode either.
func TestScalarShimsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on the instrumented hot path")
	}
	for _, cfg := range allModes() {
		t.Run(fmt.Sprintf("%v-%v", cfg.Mode, cfg.RX), func(t *testing.T) {
			ep, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			hp := NewHostPort(ep.Shared())
			f := frame(512, 7)
			buf := make([]byte, cfg.FrameCap())

			lap := func() {
				if err := ep.Send(f); err != nil {
					t.Fatalf("Send: %v", err)
				}
				if n, err := hp.Pop(buf); err != nil || n != len(f) {
					t.Fatalf("Pop = %d, %v", n, err)
				}
				if err := hp.Push(f); err != nil {
					t.Fatalf("Push: %v", err)
				}
				rx, err := ep.Recv()
				if err != nil {
					t.Fatalf("Recv: %v", err)
				}
				rx.Release()
			}
			for i := 0; i < 2*cfg.Slots; i++ { // warm the pools and every slot's scratch
				lap()
			}
			if allocs := measureAllocs(lap); allocs != 0 {
				t.Fatalf("scalar lap allocates %.1f objects/op, want 0", allocs)
			}
		})
	}
}
