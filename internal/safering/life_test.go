package safering_test

import (
	"errors"
	"sync"
	"testing"
	"time"
	"unsafe"

	"confio/internal/safering"
)

// TestDeadRacesReincarnate polls the device's death from one goroutine
// while another kills and reincarnates in a loop: Dead() is an atomic
// load of a word cleared in place, never a pointer swapped under the
// reader. Run with -race (the storage twin of this test fails there on
// the latch-swapping Reincarnate blkring.Multi used to have).
func TestDeadRacesReincarnate(t *testing.T) {
	m, err := safering.NewMulti(safering.DefaultConfig(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m.SetRecoveryPolicy(testPolicy(clk, 1<<20))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = m.Dead()
				_ = m.Queue(1).Dead()
			}
		}
	}()
	for round := 0; round < 200; round++ {
		killByOverclaim(t, m.Queue(round%2))
		clk.Advance(time.Minute) // past any backoff, and slides the budget window
		if _, err := m.Reincarnate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := m.Dead(); err != nil {
			t.Fatalf("round %d: reborn device still dead: %v", round, err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPolicyThroughAQueueIsTheDevices: recovery policy is a property of
// the device, so setting it through one queue of a multi-queue device
// governs the device-wide Reincarnate (it used to be silently ignored and
// the default eight-death budget applied).
func TestPolicyThroughAQueueIsTheDevices(t *testing.T) {
	m, err := safering.NewMulti(safering.DefaultConfig(), 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	clk := newFakeClock()
	m.Queue(1).SetRecoveryPolicy(testPolicy(clk, 1))

	killByOverclaim(t, m.Queue(0))
	if _, err := m.Queue(0).Reincarnate(); !errors.Is(err, safering.ErrSiblings) {
		t.Fatalf("per-queue rebirth: %v, want ErrSiblings", err)
	}
	if _, err := m.Reincarnate(); err != nil {
		t.Fatalf("first death inside the budget: %v", err)
	}
	killByOverclaim(t, m.Queue(1))
	clk.Advance(2 * time.Second)
	if _, err := m.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		t.Fatalf("second death against a one-death budget: %v, want ErrBudgetExhausted", err)
	}
	for q := 0; q < m.Queues(); q++ {
		if err := m.Queue(q).Send(make([]byte, 64)); !errors.Is(err, safering.ErrDead) {
			t.Fatalf("queue %d after budget exhaustion: %v", q, err)
		}
	}
}

// TestLifeFillsACacheLine: every operation of every queue loads the
// Life's latch word, so the Life must not share its line with something a
// datapath goroutine stores to per burst. Whole lines of its own, at a
// line-aligned address, make that the allocator's guarantee.
func TestLifeFillsACacheLine(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(safering.Life{}); sz%line != 0 {
		t.Fatalf("Life is %d bytes: not a multiple of the %d-byte cache line", sz, line)
	}
	for i := 0; i < 64; i++ {
		if off := uintptr(unsafe.Pointer(safering.NewLife(safering.ErrDead))) % line; off != 0 {
			t.Fatalf("life %d allocated %d bytes into a cache line", i, off)
		}
	}
}
