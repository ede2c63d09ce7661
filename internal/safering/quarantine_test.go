package safering

import (
	"errors"
	"testing"
	"time"
)

// fakeClock drives the quarantine deterministically: tests advance it
// explicitly and every policy uses it in place of time.Now.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func (c *fakeClock) set(t time.Time)         { c.t = t }
func (c *fakeClock) policy(p RecoveryPolicy) RecoveryPolicy {
	p.Clock = c.now
	return p
}

func TestQuarantineNotBeforeZeroUntilFirstAdmission(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
	}))
	if got := q.NotBefore(); !got.IsZero() {
		t.Fatalf("NotBefore before any admission = %v, want zero", got)
	}
	if err := q.Admit(); err != nil {
		t.Fatalf("first Admit: %v", err)
	}
	want := clk.now().Add(10 * time.Millisecond)
	if got := q.NotBefore(); !got.Equal(want) {
		t.Fatalf("NotBefore after first admission = %v, want %v", got, want)
	}
}

// TestQuarantineBackoffBoundary pins the admission window edges: one
// nanosecond before NotBefore is refused (without consuming budget),
// and the NotBefore instant itself — now.Before(notBefore) is false —
// is admitted.
func TestQuarantineBackoffBoundary(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff: 10 * time.Millisecond,
		MaxBackoff:  time.Second,
	}))
	if err := q.Admit(); err != nil {
		t.Fatalf("first Admit: %v", err)
	}
	nb := q.NotBefore()

	clk.set(nb.Add(-time.Nanosecond))
	if err := q.Admit(); !errors.Is(err, ErrQuarantine) {
		t.Fatalf("Admit 1ns before NotBefore = %v, want ErrQuarantine", err)
	}
	if got := q.NotBefore(); !got.Equal(nb) {
		t.Fatalf("refused attempt moved NotBefore %v -> %v", nb, got)
	}

	clk.set(nb) // exactly the boundary: admitted
	if err := q.Admit(); err != nil {
		t.Fatalf("Admit at exactly NotBefore = %v, want nil", err)
	}
}

// TestQuarantineBackoffDoubles checks the exponential ladder with jitter
// disabled: each admitted death doubles the quarantine, up to MaxBackoff.
func TestQuarantineBackoffDoubles(t *testing.T) {
	const base = 10 * time.Millisecond
	const max = 70 * time.Millisecond
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  base,
		MaxBackoff:   max,
		DeathBudget:  100,
		BudgetWindow: time.Hour,
	}))
	// base<<0, base<<1, base<<2: 10ms, 20ms, 40ms, then 80ms caps at 70ms.
	// Step just past each backoff so every death stays inside the budget
	// window — the ladder counts windowed deaths, not lifetime deaths.
	for i, want := range []time.Duration{base, 2 * base, 4 * base, max, max} {
		if nb := q.NotBefore(); !nb.IsZero() {
			clk.set(nb.Add(time.Millisecond))
		}
		before := clk.now()
		if err := q.Admit(); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		if got := q.NotBefore().Sub(before); got != want {
			t.Fatalf("backoff after death %d = %v, want %v", i+1, got, want)
		}
	}
}

// TestQuarantineJitterBounds checks that jitter only ever extends the
// backoff, by at most JitterFrac of it.
func TestQuarantineJitterBounds(t *testing.T) {
	const base = 100 * time.Millisecond
	const frac = 0.5
	for seed := int64(1); seed <= 20; seed++ {
		clk := newFakeClock()
		q := NewQuarantine(clk.policy(RecoveryPolicy{
			BaseBackoff: base,
			MaxBackoff:  time.Hour,
			JitterFrac:  frac,
			Seed:        seed,
		}))
		before := clk.now()
		if err := q.Admit(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got := q.NotBefore().Sub(before)
		if got < base || got > time.Duration(float64(base)*(1+frac)) {
			t.Fatalf("seed %d: jittered backoff %v outside [%v, %v]",
				seed, got, base, time.Duration(float64(base)*(1+frac)))
		}
	}
}

// TestQuarantineShiftCap pins the backoff shift cap: past 31 deaths the
// exponent stops at 30 instead of shifting into the sign bit.
func TestQuarantineShiftCap(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  time.Nanosecond,
		MaxBackoff:   time.Duration(1) << 40,
		DeathBudget:  40,
		BudgetWindow: 100 * 365 * 24 * time.Hour,
	}))
	var last time.Duration
	for i := 0; i < 33; i++ {
		clk.set(q.NotBefore())
		before := clk.now()
		if err := q.Admit(); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		last = q.NotBefore().Sub(before)
	}
	// Death 31 onward: shift capped at 30 -> 1ns<<30, not 1ns<<32.
	if want := time.Duration(1) << 30; last != want {
		t.Fatalf("backoff after 33 deaths = %v, want shift-capped %v", last, want)
	}
}

// TestQuarantineOverflowClampsToMax: a backoff whose doubling overflows
// time.Duration clamps to MaxBackoff instead of going negative (which
// would reopen admission immediately).
func TestQuarantineOverflowClampsToMax(t *testing.T) {
	const max = time.Hour
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  time.Duration(1) << 40,
		MaxBackoff:   max,
		DeathBudget:  40,
		BudgetWindow: 100 * 365 * 24 * time.Hour,
	}))
	var last time.Duration
	for i := 0; i < 25; i++ { // (1<<40)<<24 overflows int64
		clk.set(q.NotBefore())
		before := clk.now()
		if err := q.Admit(); err != nil {
			t.Fatalf("Admit %d: %v", i, err)
		}
		last = q.NotBefore().Sub(before)
	}
	if last != max {
		t.Fatalf("overflowed backoff = %v, want clamped %v", last, max)
	}
}

// TestQuarantineRefusalConsumesNoBudget: attempts inside the backoff do
// not count as deaths, so a retry loop cannot exhaust its own budget.
func TestQuarantineRefusalConsumesNoBudget(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  time.Second,
		MaxBackoff:   time.Second,
		DeathBudget:  2,
		BudgetWindow: time.Hour,
	}))
	if err := q.Admit(); err != nil {
		t.Fatalf("first Admit: %v", err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Admit(); !errors.Is(err, ErrQuarantine) {
			t.Fatalf("quarantined Admit %d = %v, want ErrQuarantine", i, err)
		}
	}
	// Budget 2: the second real admission must still be available.
	clk.advance(2 * time.Second)
	if err := q.Admit(); err != nil {
		t.Fatalf("second real Admit after refused retries: %v", err)
	}
}

// TestQuarantineBudgetExhaustionIsSticky: blowing the death budget makes
// the quarantine permanent, and it stays permanent even after the budget
// window slides past every recorded death.
func TestQuarantineBudgetExhaustionIsSticky(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   time.Millisecond,
		DeathBudget:  3,
		BudgetWindow: time.Minute,
	}))
	for i := 0; i < 3; i++ {
		clk.advance(10 * time.Millisecond)
		if err := q.Admit(); err != nil {
			t.Fatalf("Admit %d inside budget: %v", i, err)
		}
	}
	clk.advance(10 * time.Millisecond)
	if err := q.Admit(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Admit past budget = %v, want ErrBudgetExhausted", err)
	}
	// A patient adversary waits the window out: still dead.
	clk.advance(24 * time.Hour)
	if err := q.Admit(); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("Admit after window slid = %v, want ErrBudgetExhausted", err)
	}
}

// TestQuarantineWindowSlides: deaths older than BudgetWindow stop
// counting, so a slow death rate never exhausts the budget.
func TestQuarantineWindowSlides(t *testing.T) {
	clk := newFakeClock()
	q := NewQuarantine(clk.policy(RecoveryPolicy{
		BaseBackoff:  time.Millisecond,
		MaxBackoff:   time.Millisecond,
		DeathBudget:  2,
		BudgetWindow: time.Minute,
	}))
	for i := 0; i < 10; i++ {
		clk.advance(2 * time.Minute) // each death falls out of the window
		if err := q.Admit(); err != nil {
			t.Fatalf("slow-rate Admit %d: %v", i, err)
		}
	}
}
