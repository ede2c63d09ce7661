package nic

import (
	"time"

	"confio/internal/simnet"
)

// ParkedPoller installs net's host poller ahead of its first pump: one
// whose idle wait lasts an hour, so that only a wake ends it. Each time
// it is about to block with a poke already pending, it takes the poke
// and polls again instead: a poke that came before the test's event
// would end the wait without it. With nothing pending it offers waits a
// value until the test takes it: once the test holds that value, the
// poller waits, and only what the test does next can end the wait. A
// poke that comes while the value is still on offer ends the offer and
// the poller polls again, so a poller woken by a stale poke after the
// test took its value never sits on an offer the test is not reading
// while the test's own poke waits. The last pump's Stop ends it, as any
// poller.
func ParkedPoller(net *simnet.Network, waits chan struct{}) {
	po := &poller{wake: make(chan struct{}, 1)}
	l := po.loop()
	l.Bound = time.Hour
	stop := po.d.stopChan()
	again := make(chan struct{})
	close(again)
	l.Wake = func() <-chan struct{} {
		select {
		case <-po.wake:
			return again
		default:
		}
		select {
		case waits <- struct{}{}:
		case <-po.wake:
			return again
		case <-stop:
		}
		return po.wake
	}
	pollersMu.Lock()
	pollers[net] = po
	pollersMu.Unlock()
	po.d.Go(l)
}
