package safering

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// This file is the recovery half of fail-dead. Death stays exactly as
// strict as before — a protocol violation still kills the whole device
// with no resynchronization — but a dead device may be *reincarnated*:
// the guest tears down the poisoned shared window and builds a fresh one
// at the next epoch. The host's only role is to attach to the new window
// (accept) or not (ignore); it cannot influence the rebirth, and the
// epoch tag stamped into every descriptor makes the old window's
// contents unreplayable into the new one.
//
// Recovery is rate-limited by a quarantine policy so a malicious host
// does not get a free reset oracle: each admitted reincarnation arms an
// exponentially growing (jittered) backoff before the next one, and a
// death budget caps deaths per sliding window — exceeding it makes the
// device permanently dead.

// ErrNotDead is returned by Reincarnate on a live device: rebirth is a
// recovery path, not a reset API (live replacement is Swap).
var ErrNotDead = errors.New("safering: reincarnate: device is not dead")

// ErrQuarantine rejects a reincarnation attempted before the backoff
// from the previous death has elapsed. The attempt does not consume
// death budget; retry after the backoff.
var ErrQuarantine = errors.New("safering: reincarnation quarantined (backoff in effect)")

// ErrBudgetExhausted means the device exceeded its death budget and is
// permanently dead. Every later Reincarnate returns it; there is no
// recovery from exhausted budget by design.
var ErrBudgetExhausted = errors.New("safering: death budget exhausted: device is permanently dead")

// RecoveryPolicy bounds how often a device may be reincarnated.
type RecoveryPolicy struct {
	// BaseBackoff is the quarantine after the first death in a window;
	// it doubles with each subsequent death, capped at MaxBackoff.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// JitterFrac adds up to this fraction of the backoff as seeded
	// random jitter, de-synchronizing fleets of guests all reincarnating
	// after the same host incident.
	JitterFrac float64
	// DeathBudget is the number of deaths tolerated per BudgetWindow;
	// one more makes the device permanently dead.
	DeathBudget  int
	BudgetWindow time.Duration
	// Clock supplies time (tests and the chaos harness inject a fake
	// clock); nil means time.Now.
	Clock func() time.Time
	// Seed seeds the jitter source, keeping chaos runs reproducible.
	Seed int64
}

// DefaultRecoveryPolicy returns the policy used when none is set.
func DefaultRecoveryPolicy() RecoveryPolicy {
	return RecoveryPolicy{
		BaseBackoff:  10 * time.Millisecond,
		MaxBackoff:   5 * time.Second,
		JitterFrac:   0.2,
		DeathBudget:  8,
		BudgetWindow: time.Minute,
		Clock:        time.Now,
		Seed:         1,
	}
}

// Quarantine is the reincarnation admission state machine: exponential
// jittered backoff, a sliding death budget, sticky permanence. It is
// exported so that other device classes built on the generic ring engine
// (blkring) and the gateway's tenant backoff share the exact policy
// instead of growing a parallel weaker copy. Not self-locking: the owner
// (Life.mu, the gateway tenant's mutex) serializes Admit.
type Quarantine struct {
	policy    RecoveryPolicy
	rng       *rand.Rand  // jitter source, seeded on the first admission
	deaths    []time.Time // admitted deaths inside the sliding window
	notBefore time.Time   // next admission not before this instant
	permanent bool
}

// NewQuarantine builds a quarantine from the policy (zero-value fields
// take the defaults of DefaultRecoveryPolicy).
func NewQuarantine(p RecoveryPolicy) *Quarantine {
	if p.Clock == nil {
		p.Clock = time.Now
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = DefaultRecoveryPolicy().BaseBackoff
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = p.BaseBackoff
	}
	if p.DeathBudget <= 0 {
		p.DeathBudget = DefaultRecoveryPolicy().DeathBudget
	}
	if p.BudgetWindow <= 0 {
		p.BudgetWindow = DefaultRecoveryPolicy().BudgetWindow
	}
	return &Quarantine{policy: p}
}

// Admit decides whether one reincarnation may proceed now, recording the
// death and arming the backoff for the next admission on success. Errors
// are ErrQuarantine (retry after backoff) or ErrBudgetExhausted
// (permanent).
func (r *Quarantine) Admit() error {
	if r.permanent {
		return ErrBudgetExhausted
	}
	now := r.policy.Clock()
	if now.Before(r.notBefore) {
		return fmt.Errorf("%w: %v remaining", ErrQuarantine, r.notBefore.Sub(now))
	}
	// Slide the budget window.
	cut := now.Add(-r.policy.BudgetWindow)
	kept := r.deaths[:0]
	for _, t := range r.deaths {
		if t.After(cut) {
			kept = append(kept, t)
		}
	}
	r.deaths = kept
	if len(r.deaths) >= r.policy.DeathBudget {
		// Permanence is sticky: once the budget is blown the device never
		// comes back, even after the window slides past the old deaths —
		// otherwise a patient adversary just waits the window out.
		r.permanent = true
		return ErrBudgetExhausted
	}
	r.deaths = append(r.deaths, now)

	shift := uint(len(r.deaths) - 1)
	if shift > 30 {
		shift = 30
	}
	back := r.policy.BaseBackoff << shift
	if back <= 0 || back > r.policy.MaxBackoff {
		back = r.policy.MaxBackoff
	}
	if r.policy.JitterFrac > 0 {
		if r.rng == nil { // every device owns a quarantine; few ever die
			r.rng = rand.New(rand.NewSource(r.policy.Seed))
		}
		back += time.Duration(float64(back) * r.policy.JitterFrac * r.rng.Float64())
	}
	r.notBefore = now.Add(back)
	return nil
}

// NotBefore reports the instant before which the next Admit is refused
// (zero until the first admission). Admission gates that want to refuse
// work cheaply during backoff — without consuming budget or taking an
// admission — compare the clock against this instead of calling Admit.
func (r *Quarantine) NotBefore() time.Time { return r.notBefore }

// SetRecoveryPolicy installs the quarantine policy of the device this
// endpoint is a queue of (Life.SetRecoveryPolicy).
func (e *Endpoint) SetRecoveryPolicy(p RecoveryPolicy) { e.life.SetRecoveryPolicy(p) }

// Reincarnate recovers a dead single-queue device (Life.Reincarnate) and
// returns the fresh shared window for a new host backend to attach to. A
// queue of a multi-queue device is refused with ErrSiblings: there are as
// many new windows to attach as queues, and MultiEndpoint.Reincarnate
// returns them.
func (e *Endpoint) Reincarnate() (*Shared, error) {
	if err := e.life.ReincarnateSole(); err != nil {
		return nil, err
	}
	return e.Shared(), nil
}

// rebirthLocked replaces the device instance with a fresh one at the
// next epoch and resets all private protocol state. It does NOT clear
// death — only Life.Reincarnate does that, after quarantine admission.
// The old incarnation's doorbells are sealed so a host still holding
// them cannot ring the new device awake (stale rings are counted for
// audit, not acted on). Caller holds e.mu.
//
//ciovet:locked
func (e *Endpoint) rebirthLocked() error {
	sh, err := newShared(e.cfg, e.meter, e.sh.Epoch+1)
	if err != nil {
		return err
	}
	old := e.sh
	old.TXBell.Seal()
	old.RXBell.Seal()
	e.sh = sh

	// Reset all private protocol state. Un-reaped TX slabs belonged to
	// the old arena and vanish with it; their txHandles entries are
	// overwritten before the fresh engine can return those slots.
	e.tx.Reset(sh.TX, sh.TXBell)
	e.rxTail = 0
	if e.rxFree != nil {
		e.rxFree.Reset(sh.RXFree, nil)
	}
	if e.slabHeld != nil {
		for i := range e.slabHeld {
			e.slabHeld[i] = false
		}
		for slab := 0; slab < e.cfg.Slots; slab++ {
			e.stageSlabLocked(slab)
		}
		e.publishFreeLocked()
	}
	return nil
}
