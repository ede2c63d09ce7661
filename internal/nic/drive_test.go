package nic

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// fake is a scripted loop: call i of Step reports progress[i] (false past
// the end of the script, with err once err is set), call j of Park
// reports ready[j] (false past the end), and every call the driver makes
// — yields included — is logged in order.
type fake struct {
	progress, ready []bool
	err             error
	next            func() time.Time // Step's next; nil: none
	wake            chan struct{}

	mu           sync.Mutex
	log          []string
	steps, parks int
}

func newFake() *fake { return &fake{wake: make(chan struct{}, 1)} }

func (f *fake) record(call string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, call)
}

// calls returns the log so far, space-separated.
func (f *fake) calls() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return strings.Join(f.log, " ")
}

// count returns how many times call was logged.
func (f *fake) count(call string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.log {
		if c == call {
			n++
		}
	}
	return n
}

func (f *fake) step() (bool, time.Time, error) {
	var next time.Time
	if f.next != nil {
		next = f.next()
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, "step")
	i := f.steps
	f.steps++
	if i < len(f.progress) {
		return f.progress[i], next, nil
	}
	return false, next, f.err
}

func (f *fake) park() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.log = append(f.log, "park")
	j := f.parks
	f.parks++
	return j < len(f.ready) && f.ready[j]
}

// loop is f under the given budget, parking, and waiting on f.wake for at
// most bound.
func (f *fake) loop(spin, yields int, bound time.Duration) Loop {
	return Loop{
		Step: f.step, Spin: spin, Yield: yields, Bound: bound,
		Park: f.park, Unpark: func() { f.record("unpark") },
		Wake: func() <-chan struct{} { f.record("wake"); return f.wake },
	}
}

// start runs l on a fresh driver with the yields logged to f, and stops
// the driver when the test ends.
func start(t *testing.T, f *fake, l Loop) *Driver {
	t.Helper()
	saved := yield
	yield = func() { f.record("yield") }
	t.Cleanup(func() { yield = saved })
	d := new(Driver)
	d.Go(l)
	t.Cleanup(d.Stop)
	return d
}

// await polls cond until it holds, failing the test after five seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(50 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestDriverSpinsThenParks: Spin empty polls after the first, the last
// Spin-Yield of them each after a yield, then one park and one wait.
func TestDriverSpinsThenParks(t *testing.T) {
	f := newFake()
	start(t, f, f.loop(5, 2, time.Hour))
	await(t, "the wait", func() bool { return f.count("wake") == 1 })
	want := "step step step yield step yield step yield step park wake"
	if got := f.calls(); got != want {
		t.Fatalf("driver called\n\t%s\nwant\n\t%s", got, want)
	}
}

// TestDriverRepollsWhenParkFindsWork: a park that reports work waiting
// is followed by another poll, not a wait, and the next idle poll parks
// again.
func TestDriverRepollsWhenParkFindsWork(t *testing.T) {
	f := newFake()
	f.ready = []bool{true}
	start(t, f, f.loop(0, 0, time.Hour))
	await(t, "the wait", func() bool { return f.count("wake") == 1 })
	if got, want := f.calls(), "step park step park wake"; got != want {
		t.Fatalf("driver called %q, want %q", got, want)
	}
}

// TestDriverUnparksOnceWhenWorkResumes: the first productive poll after
// a wait withdraws the park; a second does not withdraw it again, and the
// next idle edge parks anew.
func TestDriverUnparksOnceWhenWorkResumes(t *testing.T) {
	f := newFake()
	f.progress = []bool{false, true, true}
	start(t, f, f.loop(0, 0, time.Hour))
	await(t, "the first wait", func() bool { return f.count("wake") == 1 })
	f.wake <- struct{}{}
	await(t, "the second wait", func() bool { return f.count("wake") == 2 })
	if got, want := f.calls(), "step park wake step unpark step step park wake"; got != want {
		t.Fatalf("driver called %q, want %q", got, want)
	}
}

// TestDriverWaitEnds: a wait ends on whichever comes first of the wake,
// the loop's next deadline, its bound and Stop — each case with the
// others an hour away. Timers never fire early, so the timed cases also
// pin the lower edge.
func TestDriverWaitEnds(t *testing.T) {
	const short = 3 * time.Millisecond
	secondPoll := func(t *testing.T, f *fake, l Loop) {
		t.Helper()
		start(t, f, l)
		// At least, not exactly: in the timed cases the loop waits again a
		// bound later, and an observer descheduled past that misses the
		// exact count.
		await(t, "the wait", func() bool { return f.count("wake") >= 1 })
		if f.next == nil && l.Bound == time.Hour {
			f.wake <- struct{}{}
		}
		await(t, "the poll after the wait", func() bool { return f.count("step") >= 2 })
	}
	t.Run("wake", func(t *testing.T) {
		f := newFake()
		secondPoll(t, f, f.loop(0, 0, time.Hour))
	})
	t.Run("next", func(t *testing.T) {
		f := newFake()
		var first time.Time // the one deadline: the timed work is done once polled
		f.next = func() time.Time {
			if !first.IsZero() {
				return time.Time{}
			}
			first = time.Now().Add(short)
			return first
		}
		secondPoll(t, f, f.loop(0, 0, time.Hour))
		if early := time.Until(first); early > 0 {
			t.Fatalf("polled %v before the loop's next deadline", early)
		}
	})
	t.Run("bound", func(t *testing.T) {
		f, t0 := newFake(), time.Now()
		secondPoll(t, f, f.loop(0, 0, short))
		if d := time.Since(t0); d < short {
			t.Fatalf("polled again %v into a %v bound", d, short)
		}
	})
	t.Run("stop", func(t *testing.T) {
		f := newFake()
		d := start(t, f, f.loop(0, 0, time.Hour))
		await(t, "the wait", func() bool { return f.count("wake") == 1 })
		d.Stop()
		if n := d.Running(); n != 0 || f.count("step") != 1 {
			t.Fatalf("after Stop: %d loops running, %d polls; want 0 and 1", n, f.count("step"))
		}
	})
}

// TestDriverReturnsTerminalError: a Step error ends its loop at once and
// is what Err reports; the other loops on the driver run on.
func TestDriverReturnsTerminalError(t *testing.T) {
	boom := errors.New("boom")
	f, g := newFake(), newFake()
	f.progress, f.err = []bool{true, false}, boom
	d := start(t, f, f.loop(8, 8, time.Hour))
	d.Go(g.loop(0, 0, time.Hour))
	await(t, "the failing loop to end", func() bool { return d.Running() == 1 })
	if err := d.Err(); err != boom {
		t.Fatalf("Err() = %v, want %v", err, boom)
	}
	if got := f.calls(); got != "step step step" {
		t.Fatalf("failing loop called %q after its error", got)
	}
	d.Stop()
	if d.Running() != 0 || d.Err() != boom {
		t.Fatalf("after Stop: %d running, Err() = %v", d.Running(), d.Err())
	}
}

// TestDriverStopIsIdempotent: Stop is safe without Go, again after
// itself, and from several goroutines at once.
func TestDriverStopIsIdempotent(t *testing.T) {
	new(Driver).Stop()
	f := newFake()
	d := start(t, f, f.loop(0, 0, time.Hour))
	for i := 0; i < 2; i++ {
		d.Go(newFake().loop(0, 0, time.Hour))
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.Stop()
		}()
	}
	wg.Wait()
	d.Stop()
	if n := d.Running(); n != 0 {
		t.Fatalf("%d loops running after Stop", n)
	}
}

// TestDriverIdleCycleAllocatesNothing: poll, wait, wake, poll again — the
// cycle every idle loop repeats — allocates nothing once the loop's timer
// exists.
func TestDriverIdleCycleAllocatesNothing(t *testing.T) {
	wake, polled := make(chan struct{}, 1), make(chan struct{})
	d := new(Driver)
	d.Go(Loop{
		Step: func() (bool, time.Time, error) {
			polled <- struct{}{}
			return false, time.Time{}, nil
		},
		Park:   func() bool { return false },
		Unpark: func() {},
		Wake:   func() <-chan struct{} { return wake },
		Bound:  time.Hour,
	})
	defer d.Stop()
	<-polled
	allocs := testing.AllocsPerRun(100, func() {
		wake <- struct{}{}
		<-polled
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per idle cycle, want 0", allocs)
	}
}
