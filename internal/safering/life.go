package safering

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"confio/internal/platform"
)

// DeathLatch holds the first fatal error of a device. The paper's
// stateless principle says a protocol violation has no recovery path; on
// a multi-queue device the blast radius is the whole device, not the one
// queue the host happened to corrupt — otherwise a malicious host could
// kill queues selectively and steer traffic onto the survivors it wants
// to study. The first violation wins; every queue observes it on its
// next operation.
type DeathLatch struct {
	err atomic.Pointer[deathErr]
}

// deathErr boxes the fatal error, and the error dead operations report
// from then on, so the latch can CAS a single pointer.
type deathErr struct{ err, op error }

// Kill records the first device-fatal error. Concurrent killers race on
// a single CAS so exactly one cause is latched; Kill returns that cause
// — the value every later Dead() call repeats, whether or not it is the
// err this caller brought — and whether this call won the race. Callers
// must report the returned cause instead of the error they detected,
// otherwise two queues dying simultaneously would report different
// device-death causes (the first-error race this signature exists to
// close).
//
// errDead is the device class's ErrDead: the error dead operations
// report — errDead wrapped around the cause — is built here, once per
// death, so the dead fast path allocates nothing and callers can still
// tell a stalled host (errors.Is(err, ErrStalled)) from a protocol
// violation.
func (l *DeathLatch) Kill(err, errDead error) (cause error, won bool) {
	if err != nil {
		won = l.err.CompareAndSwap(nil, &deathErr{err: err, op: fmt.Errorf("%w (cause: %w)", errDead, err)})
	}
	return l.Dead(), won
}

// reset clears the latch for the next incarnation. Unexported on
// purpose, and the ciovet latchclear rule enforces that only
// Life.Reincarnate calls it: clearing device death anywhere else would
// reopen the recoverable-error surface fail-dead exists to remove.
func (l *DeathLatch) reset() {
	l.err.Store(nil)
}

// Dead returns the violation that killed the device, if any.
func (l *DeathLatch) Dead() error {
	if d := l.err.Load(); d != nil {
		return d.err
	}
	return nil
}

// ErrSiblings refuses the rebirth of one queue of a multi-queue device:
// fail-dead made the blast radius the whole device, so recovery has the
// same radius — a host cannot keep one poisoned queue alive while the
// guest revives the rest.
var ErrSiblings = errors.New("safering: reincarnate: endpoint is one queue of a multi-queue device; recovery is device-wide")

// Life is the fail-dead lifecycle of one ring device, written once for
// every device class built on the engine (the NIC's guest and host
// sides, blkring) and every queue count — a single-queue device is the
// one-queue case:
//
//	Live → Dead(cause) → Quarantined → Reborn(epoch+1) | Permanent
//
// The latch word is the only death state there is. A queue asks it on
// every operation (one atomic load) and keeps no copy, so there is
// nothing to adopt and nothing that can disagree; it is cleared in
// place, by Reincarnate alone, with every queue lock held. Nothing on
// the datapath stores to a Life, so that load shares its cache line with
// no per-burst write.
type Life struct {
	latch   DeathLatch
	errDead error // the device class's ErrDead

	mu     sync.Mutex // serializes Reincarnate; guards rec
	rec    *Quarantine
	queues []lifeQueue
}

// lifeQueue is what rebirth needs of one queue.
type lifeQueue struct {
	mu      *sync.Mutex     // the queue's lock
	meter   *platform.Meter // may be nil
	rebirth func() error    // the class's rebirthLocked
}

// NewLife starts the lifecycle of a device whose dead operations report
// errDead, under DefaultRecoveryPolicy. Its queues Join it as the device
// is constructed.
func NewLife(errDead error) *Life {
	return &Life{errDead: errDead, rec: NewQuarantine(DefaultRecoveryPolicy())}
}

// Join adds one queue to the device: the lock that serializes it, its
// meter, and the class-specific rebirth Reincarnate calls with that lock
// held. Construction-time only.
func (l *Life) Join(mu *sync.Mutex, meter *platform.Meter, rebirth func() error) {
	l.queues = append(l.queues, lifeQueue{mu, meter, rebirth})
}

// Kill fail-deads the device with err unless it is dead already, and
// returns the first cause either way. The device death is metered once,
// on the meter of the queue whose kill won.
func (l *Life) Kill(err error, meter *platform.Meter) error {
	cause, won := l.latch.Kill(err, l.errDead)
	if won {
		meter.Death(1)
	}
	return cause
}

// Dead returns the violation that killed the device, if any. A non-nil
// result means every queue refuses I/O.
func (l *Life) Dead() error { return l.latch.Dead() }

// DeadOp returns the error every operation on the dead device reports —
// the class's ErrDead wrapped around the cause — or nil while it lives.
func (l *Life) DeadOp() error {
	if d := l.latch.err.Load(); d != nil {
		return d.op
	}
	return nil
}

// SetRecoveryPolicy installs the quarantine policy governing
// Reincarnate, replacing any accumulated quarantine state. The policy is
// a property of the device, whichever handle it is set through. Call it
// at device setup; the default is DefaultRecoveryPolicy.
func (l *Life) SetRecoveryPolicy(p RecoveryPolicy) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.rec = NewQuarantine(p)
}

// Reincarnate recovers a dead device as one atomic unit: under a single
// quarantine admission every queue tears down its poisoned shared window
// and builds a fresh one at the next epoch, then death is cleared. The
// handshake is exactly that — the host attaches to the new windows or it
// does not; there is nothing for it to negotiate, influence, or replay,
// because every descriptor of the old incarnation carries the old epoch
// tag and is fatally rejected by the new one.
//
// Admission is governed by the recovery policy: ErrQuarantine while the
// backoff from the previous death is still running (retry later), and
// ErrBudgetExhausted — permanently — once the death budget is blown. A
// live device is refused with ErrNotDead.
func (l *Life) Reincarnate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.latch.Dead() == nil {
		return ErrNotDead
	}
	if err := l.rec.Admit(); err != nil {
		return err
	}
	// Hold every queue lock across the whole rebirth so no queue can
	// observe a half-reincarnated device (some queues at the new epoch,
	// the latch still dead, siblings on the old window).
	for _, q := range l.queues {
		q.mu.Lock()
		defer q.mu.Unlock()
	}
	for _, q := range l.queues {
		if err := q.rebirth(); err != nil {
			// The device stays dead (latch untouched) and the admission
			// stays consumed; allocation failure is not a free retry.
			return err
		}
	}
	l.latch.reset()
	l.queues[0].meter.Reincarnation(1)
	return nil
}

// ReincarnateSole is Reincarnate through the handle of one queue: the
// device's when that queue is all there is, ErrSiblings otherwise.
func (l *Life) ReincarnateSole() error {
	if len(l.queues) > 1 {
		return ErrSiblings
	}
	return l.Reincarnate()
}
