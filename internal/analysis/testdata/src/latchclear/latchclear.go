// Corpus for the latchclear analyzer: fail-dead state is cleared only by
// a Reincarnate path. The types are local stand-ins — the rule keys on
// the DeathLatch type name and the dead/deadOp field names, which is
// exactly how the real safering package spells them.
package latchclear

type DeathLatch struct{ err error }

func (l *DeathLatch) reset() { l.err = nil }
func (l *DeathLatch) Reset() { l.err = nil }

type Endpoint struct {
	dead   error
	deadOp error
	latch  DeathLatch
}

// timer is a non-latch type with a Reset method: resetting it is fine.
type timer struct{ deadline int64 }

func (t *timer) Reset() { t.deadline = 0 }

// BadClearDead wipes fatal state with no quarantine in sight.
func BadClearDead(e *Endpoint) {
	e.dead = nil // want "cleared outside a Reincarnate path"
}

// BadClearTuple clears both cached fields in one statement.
func BadClearTuple(e *Endpoint) {
	e.dead, e.deadOp = nil, nil // want "cleared outside a Reincarnate path" "cleared outside a Reincarnate path"
}

// BadLatchReset revives the device-wide latch directly.
func BadLatchReset(e *Endpoint) {
	e.latch.reset() // want "DeathLatch cleared outside a Reincarnate path"
}

// BadExportedReset is no better for being exported.
func BadExportedReset(l *DeathLatch) {
	l.Reset() // want "DeathLatch cleared outside a Reincarnate path"
}

// BadClosureClear: a closure inherits the enclosing function's (lack of)
// dispensation.
func BadClosureClear(e *Endpoint) func() {
	return func() {
		e.dead = nil // want "cleared outside a Reincarnate path"
	}
}

// Reincarnate is the sanctioned recovery path: clearing here is the point.
func (e *Endpoint) Reincarnate() {
	e.dead, e.deadOp = nil, nil
	e.latch.reset()
}

// reincarnateLocked: helpers under the same name share the dispensation,
// including deferred closures.
func (e *Endpoint) reincarnateLocked() {
	defer func() { e.deadOp = nil }()
	e.dead = nil
}

// rebirthLocked rebuilds a queue's window; clearing death is not its
// job, whatever it is called.
func (e *Endpoint) rebirthLocked() {
	e.dead = nil // want "cleared outside a Reincarnate path"
}

// GoodSetDead records death; only clearing is restricted.
func GoodSetDead(e *Endpoint, err error) {
	e.dead = err
}

// GoodLocalDead: a local variable named dead is not device state.
func GoodLocalDead() error {
	var dead error
	dead = nil
	return dead
}

// GoodTimerReset: Reset on a non-DeathLatch type is untouched.
func GoodTimerReset(t *timer) {
	t.Reset()
}

// AllowedClear uses the audited opt-out; the suppression must silence the
// diagnostic entirely.
func AllowedClear(e *Endpoint) {
	//ciovet:allow latchclear unit test fixture needs a pristine endpoint
	e.dead = nil
}
