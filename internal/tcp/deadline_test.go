package tcp

import (
	"testing"
	"time"
)

// TestNextDeadlinePerTimerKind: NextDeadline is the minimum over live
// connections of exactly the timers tickLocked would honour in each
// connection's state, and zero when none is armed.
func TestNextDeadlinePerTimerKind(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	type timers struct {
		state               State
		rtx, probe, timeWat time.Duration // 0: not armed
	}
	cases := []struct {
		name  string
		conns []timers
		want  time.Duration // 0: no deadline
	}{
		{"no connections", nil, 0},
		{"established, nothing armed", []timers{{state: StateEstablished}}, 0},
		{"retransmission", []timers{{state: StateEstablished, rtx: 50 * time.Millisecond}}, 50 * time.Millisecond},
		{"syn retransmission", []timers{{state: StateSynSent, rtx: 50 * time.Millisecond}}, 50 * time.Millisecond},
		{"zero-window probe", []timers{{state: StateEstablished, probe: 20 * time.Millisecond}}, 20 * time.Millisecond},
		{"probe before retransmission", []timers{{state: StateEstablished, rtx: 50 * time.Millisecond, probe: 20 * time.Millisecond}}, 20 * time.Millisecond},
		{"time-wait expiry", []timers{{state: StateTimeWait, timeWat: 250 * time.Millisecond}}, 250 * time.Millisecond},
		{"time-wait ignores a stale retransmission timer", []timers{{state: StateTimeWait, rtx: time.Millisecond, timeWat: 250 * time.Millisecond}}, 250 * time.Millisecond},
		{"time-wait timer ignored outside time-wait", []timers{{state: StateFinWait2, timeWat: time.Millisecond}}, 0},
		{"closed connection ignored", []timers{{state: StateClosed, rtx: time.Millisecond, probe: time.Millisecond, timeWat: time.Millisecond}}, 0},
		{"minimum over connections", []timers{
			{state: StateEstablished, rtx: 80 * time.Millisecond},
			{state: StateTimeWait, timeWat: 30 * time.Millisecond},
			{state: StateEstablished, probe: 40 * time.Millisecond},
		}, 30 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEndpoint(ipA, 1500, testHeadroom, func(Batch) {}, func() time.Time { return t0 })
			for i, tm := range tc.conns {
				c := newConn(e, connKey{rip: ipB, rport: uint16(1000 + i), lport: 80})
				c.state = tm.state
				if tm.rtx != 0 {
					c.rtxDeadline = at(tm.rtx)
				}
				if tm.probe != 0 {
					c.probeAt = at(tm.probe)
				}
				if tm.timeWat != 0 {
					c.timeWaitAt = at(tm.timeWat)
				}
				e.conns[c.key] = c
			}
			got := e.NextDeadline()
			if tc.want == 0 {
				if !got.IsZero() {
					t.Fatalf("NextDeadline = t0+%v, want none", got.Sub(t0))
				}
				return
			}
			if !got.Equal(at(tc.want)) {
				t.Fatalf("NextDeadline = t0+%v, want t0+%v", got.Sub(t0), tc.want)
			}
		})
	}
}

// TestTickAtNextDeadlineHasWork closes the loop for a driver that sleeps
// until NextDeadline: a Tick before it changes nothing, a Tick after it
// fires the timer and moves the deadline on.
func TestTickAtNextDeadlineHasWork(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	sent := 0
	e := NewEndpoint(ipA, 1500, testHeadroom, func(b Batch) { sent += len(b.Pkts) }, func() time.Time { return now })
	e.mu.Lock()
	c := newConn(e, connKey{rip: ipB, rport: 80, lport: 40000})
	c.state = StateSynSent
	c.iss = 1
	c.sndUna, c.sndNxt = c.iss, c.iss+1
	e.conns[c.key] = c
	c.sendSynLocked()
	e.mu.Unlock()
	e.flush()

	first := e.NextDeadline()
	if !first.Equal(now.Add(rtoInitial)) {
		t.Fatalf("deadline after SYN = now+%v, want now+%v", first.Sub(now), rtoInitial)
	}
	now = first.Add(-time.Microsecond)
	e.Tick()
	if st := e.Stats(); st.Retransmits != 0 || sent != 1 {
		t.Fatalf("tick before the deadline retransmitted (%d) or sent (%d segments)", st.Retransmits, sent)
	}
	now = first.Add(time.Microsecond)
	e.Tick()
	if st := e.Stats(); st.Retransmits != 1 || sent != 2 {
		t.Fatalf("tick after the deadline: %d retransmits, %d segments; want 1 and 2", st.Retransmits, sent)
	}
	if next := e.NextDeadline(); !next.After(first) {
		t.Fatalf("deadline did not move on after the retransmission: %v then %v", first, next)
	}
}
