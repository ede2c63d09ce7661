package nic

import (
	"time"

	"confio/internal/simnet"
)

// ParkedPoller installs net's host poller ahead of its first pump: one
// whose idle wait lasts an hour, so that only a wake ends it. Each time
// it is about to block it drops a poke already pending (one that came
// before the test's event would end the wait without it) and hands
// waits a value, blocking until the test takes it: once the test holds
// that value, the poller waits, and only what the test does next can end
// the wait. The last pump's Stop ends it, as any poller.
func ParkedPoller(net *simnet.Network, waits chan struct{}) {
	po := &poller{wake: make(chan struct{}, 1)}
	l := po.loop()
	l.Bound = time.Hour
	stop := po.d.stopChan()
	l.Wakes = func() (a, b <-chan struct{}) {
		select {
		case <-po.wake:
		default:
		}
		select {
		case waits <- struct{}{}:
		case <-stop:
		}
		return po.wake, nil
	}
	pollersMu.Lock()
	pollers[net] = po
	pollersMu.Unlock()
	po.d.Go(l)
}
