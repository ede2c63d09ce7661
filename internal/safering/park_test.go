package safering

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"confio/internal/nic"
)

// Tests for the parked poller: the wake a StoreProd pokes is a hint with
// the Dekker re-check behind it, so no hand-off may ever need the timer,
// a ring retired by rebirth costs one bounded wait, and none of it
// allocates.

// lostWake is how long one hand-off may take before the test calls the
// wake lost. It is the wait bound raised far past anything scheduling
// noise produces, so that a lost wake fails here by timeout instead of
// hiding behind nic.WaitBound.
const lostWake = 10 * time.Second

// TestParkNeverLosesAWake hands single frames from a producer to a
// poller that parks on the index after every one: store-then-poke on one
// side, register-then-recheck on the other — on the producer index, the
// way an idle poller waits for work, and mirrored on the consumer index,
// the way a producer waits for its slots to come back. Run under -race.
func TestParkNeverLosesAWake(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	var ix Indexes
	words := map[string]struct {
		park       func(chan struct{})
		unpark     func()
		load, peer func() uint64 // the word parked on, the word answered with
		store, ack func(uint64)
	}{
		"prod": {ix.Park, ix.Unpark, ix.LoadProd, ix.LoadCons, ix.StoreProd, ix.StoreCons},
		"cons": {ix.ParkCons, ix.UnparkCons, ix.LoadCons, ix.LoadProd, ix.StoreCons, ix.StoreProd},
	}
	for name, w := range words {
		t.Run(name, func(t *testing.T) {
			ix.StoreProd(0)
			ix.StoreCons(0)
			wake := make(chan struct{}, 1)
			done := make(chan error, 1)
			go func() {
				timer := time.NewTimer(time.Hour)
				defer timer.Stop()
				for tail := uint64(0); tail < uint64(n); {
					w.park(wake)
					if w.load() == tail {
						timer.Reset(lostWake)
						select {
						case <-wake:
							if !timer.Stop() {
								<-timer.C
							}
						case <-timer.C:
							done <- errors.New("wake lost: poller still parked")
							return
						}
					}
					w.unpark()
					tail = w.load()
					w.ack(tail)
				}
				done <- nil
			}()
			for i := 1; i <= n; i++ {
				w.store(uint64(i))
				for w.peer() != uint64(i) { // one frame in flight at a time
					select {
					case err := <-done:
						t.Fatalf("hand-off %d of %d: %v", i, n, err)
					default:
						runtime.Gosched()
					}
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// parkedPoller is netstack's receive loop in miniature: poll, park once
// idle, block on the wake for at most nic.WaitBound, and never re-park
// until it found work.
type parkedPoller struct {
	ep     *Endpoint
	wake   chan struct{}
	idle   chan struct{} // signalled each time the poller parks and is about to block
	frames chan polled
	stop   chan struct{}
}

type polled struct {
	seed     byte
	timeouts int // waits since the previous frame that ended on the timer
	err      error
}

func startParkedPoller(ep *Endpoint) *parkedPoller {
	p := &parkedPoller{ep: ep, wake: make(chan struct{}, 1), idle: make(chan struct{}, 1),
		frames: make(chan polled), stop: make(chan struct{})}
	go p.run()
	return p
}

func (p *parkedPoller) run() {
	parked, timeouts := false, 0
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		fr, err := p.ep.Recv()
		switch {
		case err == nil:
			res := polled{seed: fr.Bytes()[0], timeouts: timeouts}
			fr.Release()
			p.ep.UnparkRX()
			parked, timeouts = false, 0
			select {
			case p.frames <- res:
			case <-p.stop:
				return
			}
			continue
		case !errors.Is(err, nic.ErrEmpty):
			select {
			case p.frames <- polled{err: err}:
			case <-p.stop:
			}
			return
		}
		if !parked {
			parked = true
			if p.ep.ParkRX(p.wake) {
				continue
			}
			select {
			case p.idle <- struct{}{}:
			default:
			}
		}
		timer.Reset(nic.WaitBound)
		select {
		case <-p.stop:
			return
		case <-p.wake:
			if !timer.Stop() {
				<-timer.C
			}
		case <-timer.C:
			timeouts++
		}
	}
}

// next returns the poller's next frame, failing the test if none comes.
func (p *parkedPoller) next(t *testing.T) polled {
	t.Helper()
	select {
	case res := <-p.frames:
		if res.err != nil {
			t.Fatal(res.err)
		}
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("parked poller never saw the frame")
		return polled{}
	}
}

func (p *parkedPoller) awaitIdle(t *testing.T) {
	t.Helper()
	select {
	case <-p.idle:
	case <-time.After(5 * time.Second):
		t.Fatal("poller never parked")
	}
}

// TestParkSurvivesRebirth: a poller parked on RXUsed stays parked on the
// old ring when Swap retires it (Reincarnate shares the code path but
// needs a dead device, which a live poller would have left). Nothing on
// the new ring pokes it, so it must find the new ring's first frame by
// its bounded wait — and park on the new ring afterwards.
func TestParkSurvivesRebirth(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	old := ep.Shared()
	p := startParkedPoller(ep)
	defer close(p.stop)
	registered := func(sh *Shared) bool {
		wake, _ := sh.RXUsed.Indexes().prodWake.v.Load().(chan struct{})
		return wake == p.wake
	}
	// A producer waiting on the old TX ring's consumer index, the way a
	// blkring submitter waits: retired with the ring, like the poller.
	txWake := make(chan struct{}, 1)
	old.TX.Indexes().ParkCons(txWake)

	// The first park's idle signal, taken now, so that the one awaited
	// below can only come from the park after frame 1.
	p.awaitIdle(t)
	if err := NewHostPort(old).Push(frame(64, 1)); err != nil {
		t.Fatal(err)
	}
	if res := p.next(t); res.seed != 1 {
		t.Fatalf("first frame seed %d", res.seed)
	}
	p.awaitIdle(t)
	if !registered(old) {
		t.Fatal("idle poller is not parked on its ring")
	}

	sh, err := ep.Swap()
	if err != nil {
		t.Fatal(err)
	}
	if registered(sh) {
		t.Fatal("the new ring was born with the old ring's parked poller")
	}
	if wake, _ := sh.TX.Indexes().consWake.v.Load().(chan struct{}); wake != nil {
		t.Fatal("the new ring was born with the old ring's parked producer")
	}
	hp := NewHostPort(sh)
	sent := time.Now()
	if err := hp.Push(frame(64, 2)); err != nil {
		t.Fatal(err)
	}
	res := p.next(t)
	if res.seed != 2 || res.timeouts == 0 {
		t.Fatalf("first frame after rebirth: seed %d after %d timed waits; want seed 2, found by the timer", res.seed, res.timeouts)
	}
	t.Logf("retired-ring park recovered in %v (bound %v)", time.Since(sent), nic.WaitBound)

	// The retired window keeps the stale registration: a host that still
	// holds it can spend pokes there, and buys validated polls of the
	// live ring, nothing else.
	p.awaitIdle(t)
	if !registered(sh) {
		t.Fatal("poller did not park on the new ring once idle again")
	}
	old.RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 8)
	if err := hp.Push(frame(64, 3)); err != nil {
		t.Fatal(err)
	}
	if res := p.next(t); res.seed != 3 {
		t.Fatalf("frame after the stale poke: seed %d, want 3", res.seed)
	}
	if err := ep.Dead(); err != nil {
		t.Fatalf("a store to the retired ring killed the live device: %v", err)
	}

	// The same on the consumer side: the new ring's consumer-index stores
	// do not reach the producer parked on the retired one (it recovers by
	// its bounded wait, as the poller above did); the retired ring's still
	// do, and buy it a validated look at the live ring, nothing else.
	if err := ep.Send(frame(64, 4)); err != nil {
		t.Fatal(err)
	}
	if _, err := hp.Pop(make([]byte, ep.Config().FrameCap())); err != nil {
		t.Fatal(err)
	}
	select {
	case <-txWake:
		t.Fatal("a consumer-index store on the new ring poked the producer parked on the retired one")
	default:
	}
	old.TX.Indexes().StoreCons(uint64(ep.Config().Slots) * 8)
	select {
	case <-txWake:
	default:
		t.Fatal("the retired ring lost its stale registration")
	}
	if err := ep.Send(frame(64, 5)); err != nil {
		t.Fatalf("a consumer-index store to the retired ring reached the live device: %v", err)
	}
}

// TestParkSeesDeathOnReincarnatedRing: ParkRX on a dead device reports
// "poll again" instead of parking a poller nobody will ever poke, and a
// park taken after Reincarnate lands on the reborn ring.
func TestParkSeesDeathOnReincarnatedRing(t *testing.T) {
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ep.SetRecoveryPolicy(RecoveryPolicy{DeathBudget: 4, BudgetWindow: time.Minute})
	wake := make(chan struct{}, 1)
	if ep.ParkRX(wake) {
		t.Fatal("idle ring reported waiting frames")
	}
	ep.Shared().RXUsed.Indexes().StoreProd(uint64(ep.Config().Slots) * 4)
	select {
	case <-wake:
	default:
		t.Fatal("garbage producer store did not poke the parked poller")
	}
	if _, err := ep.Recv(); !errors.Is(err, ErrProtocol) {
		t.Fatalf("the poll the poke bought was not validated: %v", err)
	}
	if !ep.ParkRX(wake) {
		t.Fatal("ParkRX parked a poller on a dead device")
	}
	sh, err := ep.Reincarnate()
	if err != nil {
		t.Fatal(err)
	}
	if ep.ParkRX(wake) {
		t.Fatal("reborn idle ring reported waiting frames")
	}
	if err := NewHostPort(sh).Push(frame(64, 7)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-wake:
	default:
		t.Fatal("store to the reborn ring did not poke the poller parked on it")
	}
}

// TestParkPathsZeroAlloc: the extra load in StoreProd with nobody parked,
// the poke with somebody parked, park/unpark themselves, and the empty
// poll that carries the handle to the stack all stay off the heap.
func TestParkPathsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector allocates on the instrumented hot path")
	}
	ep, err := New(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	g := ep.NIC().(nic.BatchGuest)
	out := make([]nic.Frame, 8)
	wake := make(chan struct{}, 1)
	var ix Indexes
	var v uint64
	cases := map[string]func(){
		"StoreProd, nobody parked": func() { v++; ix.StoreProd(v) },
		"StoreProd, poller parked": func() {
			ix.Park(wake)
			v++
			ix.StoreProd(v)
			<-wake
			ix.Unpark()
		},
		"StoreCons, nobody parked": func() { v++; ix.StoreCons(v) },
		"StoreCons, producer parked": func() {
			ix.ParkCons(wake)
			v++
			ix.StoreCons(v)
			<-wake
			ix.UnparkCons()
		},
		"empty RecvBatch, park, unpark": func() {
			_, err := g.RecvBatch(out)
			p, ok := err.(nic.Parker)
			if !ok || !errors.Is(err, nic.ErrEmpty) {
				t.Fatalf("empty poll returned %v (%T): want nic.ErrEmpty carrying a nic.Parker", err, err)
			}
			if p.Park(wake) {
				t.Fatal("empty ring reported waiting frames")
			}
			p.Unpark()
		},
	}
	for name, fn := range cases {
		if a := measureAllocs(fn); a != 0 {
			t.Errorf("%s: %.1f allocs, want 0", name, a)
		}
	}
}

// TestHostParksOnEveryDevice pins the one wake a backend blocks on: the
// park the guest's TX index store pokes, on a polling device and on a
// notifying one alike — a bell is only the model's charge and wakes
// nobody. Withdrawing the park withdraws the poke.
func TestHostParksOnEveryDevice(t *testing.T) {
	for _, c := range []struct {
		name string
		cfg  DeviceConfig
	}{{"polling", DefaultConfig()}, {"event-idx", eventIdxConfig()}} {
		ep, err := New(c.cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		h := NewHostPort(ep.Shared()).NIC().(nic.NotifyHost)
		if h.ArmNotify() {
			t.Fatalf("%s: idle TX ring reported waiting frames", c.name)
		}
		if err := ep.Send(frame(64, 1)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-h.NotifyChan():
		default:
			t.Fatalf("%s: TX index store did not poke the armed backend", c.name)
		}
		h.SuppressNotify()
		if err := ep.Send(frame(64, 2)); err != nil {
			t.Fatal(err)
		}
		select {
		case <-h.NotifyChan():
			t.Fatalf("%s: poked after the park was withdrawn", c.name)
		default:
		}
	}
}

// TestRingFillsWholeCacheLines pins Ring's size to a multiple of the
// cache line and its address to one: every goroutine of the datapath
// stores to or parks on some ring's index words, so rings that straddle
// lines share them with their neighbours, and which neighbours depends on
// the offset the allocator happens to hand out. (At 80 bytes that put
// echo-small's run-to-run spread past the benchmark's bound.)
func TestRingFillsWholeCacheLines(t *testing.T) {
	const line = 64
	if sz := unsafe.Sizeof(Ring{}); sz%line != 0 {
		t.Fatalf("Ring is %d bytes: not a multiple of the %d-byte cache line", sz, line)
	}
	if end := unsafe.Offsetof(Ring{}.slots) + unsafe.Sizeof(Ring{}.slots); end > line {
		t.Fatalf("index words and slots end at byte %d: past the first cache line", end)
	}
	for i := 0; i < 64; i++ {
		r, err := NewRing(8, DescSize)
		if err != nil {
			t.Fatal(err)
		}
		if off := uintptr(unsafe.Pointer(r)) % line; off != 0 {
			t.Fatalf("ring %d allocated %d bytes into a cache line", i, off)
		}
	}
}
