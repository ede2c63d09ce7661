package safering

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/platform"
)

// returnsAtOnce runs poll on a goroutine of its own and fails the test
// if it has not returned within a second: the caller holds the lock a
// locked poll would wait for, and its deferred unlock lets a stuck poll
// finish.
func returnsAtOnce(t *testing.T, what string, poll func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- poll() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Second):
		t.Fatalf("%s waited for the owner's lock", what)
		return nil
	}
}

// TestIdlePollTakesNoLock: with the owner's mutex held, an empty
// receive (Endpoint and GuestNIC) and an empty pop still return at
// once — nic.ErrEmpty, the guest's carrying its Parker — and charge the
// one check the locked empty poll charges; after the device dies they
// return its death, charging nothing, as the locked dead poll does. A
// host that writes the guest's consumer index up to its producer index
// hides no frame: the probe compares with the private tail.
func TestIdlePollTakesNoLock(t *testing.T) {
	m := &platform.Meter{}
	ep, err := New(DefaultConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	hp := NewHostPort(ep.Shared())
	g := ep.NIC().(*GuestNIC)
	checks := func(poll func()) uint64 {
		before := m.Snapshot().Checks
		poll()
		return m.Snapshot().Checks - before
	}
	locked := checks(func() {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		if n, err := ep.rx.Drain(1, func(int, uint64) error { return nil }); n != 0 || err != nil {
			t.Fatalf("locked empty drain: %d, %v", n, err)
		}
	})
	if locked != 1 {
		t.Fatalf("a locked empty poll charged %d checks, want 1", locked)
	}

	out, frames := make([]*RxFrame, 4), make([]nic.Frame, 4)
	bufs, lens := [][]byte{make([]byte, ep.Config().FrameCap())}, make([]int, 1)
	polls := []struct {
		name   string
		checks uint64 // what the locked empty poll charges on the guest's meter
		poll   func() error
	}{
		{"endpoint-recv", locked, func() error { _, err := ep.RecvBatch(out); return err }},
		{"guest-nic-recv", locked, func() error { _, err := g.RecvBatch(frames); return err }},
		{"host-pop", 0, func() error { _, err := hp.PopBatch(bufs, lens); return err }},
	}
	hold := func() func() {
		ep.mu.Lock()
		hp.mu.Lock()
		return func() { hp.mu.Unlock(); ep.mu.Unlock() }
	}

	func() {
		defer hold()()
		for _, p := range polls {
			var err error
			if c := checks(func() { err = returnsAtOnce(t, p.name, p.poll) }); c != p.checks {
				t.Errorf("%s: an idle poll charged %d checks, want %d", p.name, c, p.checks)
			}
			if !errors.Is(err, nic.ErrEmpty) {
				t.Errorf("%s: idle poll returned %v, want nic.ErrEmpty", p.name, err)
			}
			if _, ok := err.(nic.Parker); p.name == "guest-nic-recv" && !ok {
				t.Errorf("%s: the empty error %T carries no nic.Parker", p.name, err)
			}
		}
	}()

	// A hostile host stores the guest's consumer index up to what it
	// produced: the frame is still delivered.
	if err := hp.Push(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	rx := ep.Shared().RXUsed.Indexes()
	rx.StoreCons(rx.LoadProd())
	if n, err := ep.RecvBatch(out); n != 1 || err != nil {
		t.Fatalf("a frame behind a host-written consumer index: (%d, %v), want it delivered", n, err)
	}
	out[0].Release()

	ep.fail(errors.New("guest dies"))
	hp.fail(errors.New("host dies"))
	defer hold()()
	for _, p := range polls {
		var err error
		if c := checks(func() { err = returnsAtOnce(t, p.name, p.poll) }); c != 0 {
			t.Errorf("%s: a dead poll charged %d checks, want 0", p.name, c)
		}
		if !errors.Is(err, ErrDead) {
			t.Errorf("%s: dead poll returned %v, want ErrDead", p.name, err)
		}
	}
}

// TestIdleProbeAcrossRebirth: a poller probes the receive ring while the
// device is swapped and reincarnated under it (race-free under -race:
// the probe reads the ring through the handle the rebirth republishes),
// and after each rebirth a frame the new host pushes is delivered — the
// probe follows the new ring and its tail back to zero.
func TestIdleProbeAcrossRebirth(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetRecoveryPolicy(RecoveryPolicy{BaseBackoff: time.Nanosecond, MaxBackoff: time.Nanosecond,
		DeathBudget: 1 << 10, BudgetWindow: time.Minute})
	g := ep.NIC().(*GuestNIC)
	var got atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		out := make([]nic.Frame, 4)
		for {
			select {
			case <-stop:
				return
			default:
			}
			n, _ := g.RecvBatch(out)
			for _, f := range out[:n] {
				f.Release()
			}
			got.Add(int64(n))
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	for i := 0; i < 50; i++ {
		var sh *Shared
		if i%2 == 0 {
			sh, err = ep.Swap()
		} else {
			ep.fail(errors.New("rebirth"))
			sh, err = ep.Reincarnate()
		}
		if err != nil {
			t.Fatal(err)
		}
		want := got.Load() + 1
		if err := NewHostPort(sh).Push(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		for start := time.Now(); got.Load() < want; time.Sleep(10 * time.Microsecond) {
			if time.Since(start) > 5*time.Second {
				t.Fatalf("rebirth %d: the frame pushed on the new ring was never received", i)
			}
		}
	}
}
