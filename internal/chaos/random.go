package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"confio/internal/safering"
)

// RandomRun plays a seeded-random fault storm against one device and
// enforces the recovery invariant after every step: the device is either
// healthy with verified traffic, or dead with every operation failing —
// never live-but-corrupt. The same seed replays the same storm.
//
// The returned Result summarizes the run: Absorbed if the device never
// died, CleanEpoch if it died and always came back clean, FailDead if
// the death budget ended it (the run stops there), and Corrupt the
// moment any step violates the invariant.
func RandomRun(seed int64, steps int) Result {
	fault := fmt.Sprintf("random[seed=%d]", seed)
	rng := rand.New(rand.NewSource(seed))
	d := NewDevice(safering.DefaultConfig())
	wd := watchdog(d.Clock, d.EP)

	died := false
	for step := 0; step < steps; step++ {
		// Let real time pass between incidents so the sliding budget
		// window behaves as it would in deployment.
		d.Clock.Advance(30 * time.Second)

		switch rng.Intn(5) {
		case 0: // benign traffic burst
		case 1: // receive-index overclaim
			d.EP.Shared().RXUsed.Indexes().StoreProd(uint64(d.EP.Config().Slots) * 4)
			//ciovet:allow fatalviolation fault injection: the fatal error is the point, and the invariant check below observes it via Dead()
			d.EP.Recv()
		case 2: // transmit-consumer overrun
			d.EP.Shared().TX.Indexes().StoreCons(d.EP.Shared().TX.Indexes().LoadProd() + 1000)
			//ciovet:allow fatalviolation fault injection: the fatal error is the point, and the invariant check below observes it via Dead()
			d.EP.Reap()
		case 3: // garbage descriptor behind the producer index (unread)
			d.EP.Shared().RXUsed.WriteDesc(uint64(rng.Intn(d.EP.Config().Slots)),
				safering.Desc{Len: uint32(rng.Uint32()), Kind: rng.Uint32()})
		case 4: // host freeze with work pending
			//ciovet:allow fatalviolation fault injection: a full-or-dead ring is fine here, the watchdog poll below is what is under test
			d.EP.Send(pattern(128, byte(step)|1))
			wd.Poll()
			d.Clock.Advance(6 * time.Second)
			wd.Poll()
		}

		// Invariant check.
		if d.EP.Dead() == nil {
			if err := d.Verify(1); err != nil {
				return corrupt(fault, fmt.Sprintf("step %d: live but wrong: %v", step, err))
			}
			continue
		}
		died = true
		if err := d.EP.Send(pattern(64, 1)); !errors.Is(err, safering.ErrDead) {
			return corrupt(fault, fmt.Sprintf("step %d: dead device accepted a send: %v", step, err))
		}
		err := d.Reincarnate()
		for errors.Is(err, safering.ErrQuarantine) {
			d.Clock.Advance(2 * time.Second)
			err = d.Reincarnate()
		}
		if errors.Is(err, safering.ErrBudgetExhausted) {
			if serr := d.EP.Send(pattern(64, 1)); !errors.Is(serr, safering.ErrDead) {
				return corrupt(fault, fmt.Sprintf("step %d: budget-dead device accepted a send: %v", step, serr))
			}
			return d.counters(Result{Fault: fault, Outcome: FailDead,
				Detail: fmt.Sprintf("budget exhausted at step %d; permanently dead", step)})
		}
		if err != nil {
			return corrupt(fault, fmt.Sprintf("step %d: reincarnate: %v", step, err))
		}
		if err := d.Verify(1); err != nil {
			return corrupt(fault, fmt.Sprintf("step %d: post-rebirth traffic: %v", step, err))
		}
	}
	if died {
		return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
			Detail: fmt.Sprintf("%d steps; every death recovered to a clean epoch", steps)})
	}
	return d.counters(Result{Fault: fault, Outcome: Absorbed,
		Detail: fmt.Sprintf("%d steps; no fault ever violated the protocol", steps)})
}
