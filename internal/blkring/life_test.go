package blkring

import (
	"errors"
	"sync"
	"testing"
	"time"

	"confio/internal/blockdev"
	"confio/internal/safering"
)

// killQueue forges a consumer-index overclaim on one queue; its next
// submission dies on it before anything is staged.
func killQueue(t *testing.T, q *Endpoint) {
	t.Helper()
	ix := q.Shared().Ring.Indexes()
	ix.StoreCons(ix.LoadProd() + 5)
	if err := q.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("forged index not fatal: %v", err)
	}
}

// TestMultiDeadRacesReincarnate polls Multi.Dead() from one goroutine
// while another kills and reincarnates in a loop. Multi.Reincarnate used
// to swap a fresh latch into the device under a lock Dead() never took —
// a data race this test reports under -race; death is now one word
// cleared in place (safering.Life).
func TestMultiDeadRacesReincarnate(t *testing.T) {
	m, err := NewMulti(2, 4, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0) // read only by Reincarnate, on this goroutine
	m.SetRecoveryPolicy(safering.RecoveryPolicy{DeathBudget: 1 << 20, Clock: func() time.Time { return now }})

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
				_ = m.Queues()[1].Dead()
			}
		}
	}()
	for round := 0; round < 200; round++ {
		killQueue(t, m.Queues()[round%2])
		now = now.Add(2 * time.Minute) // past any backoff, and slides the budget window
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

// TestPolicyThroughAQueueIsTheDevices: the storage twin of safering's
// test — a one-death budget set through one queue governs Multi's
// device-wide Reincarnate.
func TestPolicyThroughAQueueIsTheDevices(t *testing.T) {
	m, err := NewMulti(2, 4, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	m.Queues()[1].SetRecoveryPolicy(safering.RecoveryPolicy{DeathBudget: 1, Clock: func() time.Time { return now }})

	killQueue(t, m.Queues()[0])
	if _, err := m.Queues()[0].Reincarnate(); !errors.Is(err, safering.ErrSiblings) {
		t.Fatalf("per-queue rebirth: %v, want ErrSiblings", err)
	}
	if _, err := m.Reincarnate(); err != nil {
		t.Fatalf("first death inside the budget: %v", err)
	}
	killQueue(t, m.Queues()[1])
	now = now.Add(10 * time.Second)
	if _, err := m.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
		t.Fatalf("second death against a one-death budget: %v, want ErrBudgetExhausted", err)
	}
	if err := m.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrDead) {
		t.Fatalf("budget-dead device accepted I/O: %v", err)
	}
}
