package safering

import "fmt"

// Swap replaces a *live* endpoint's device instance with a fresh one of
// identical configuration at the next epoch, returning the new shared
// state for the new host backend to attach to.
//
// This is the §3.2 migration story: because every parameter is fixed at
// deployment (zero re-negotiation), replacing the device needs no
// protocol at all — tear down, attach, go. In-flight frames are lost and
// recovered by the transports above (TCP retransmission); "migration
// without downtime remains difficult as it introduces statefulness",
// which is exactly why this interface refuses to provide it.
//
// Swap refuses a dead endpoint: recovery from fail-dead must pass the
// Reincarnate quarantine (backoff + death budget), otherwise Swap would
// be a free reset oracle for a host that kills the device on purpose.
func (e *Endpoint) Swap() (*Shared, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if dead := e.life.Dead(); dead != nil {
		return nil, fmt.Errorf("safering: swap refused, endpoint is dead (%w): recovery must pass the Reincarnate quarantine", dead)
	}
	if err := e.rebirthLocked(); err != nil {
		return nil, err
	}
	return e.sh, nil
}
