package netstack_test

import (
	"bytes"
	"io"
	"testing"
	"time"

	"confio/internal/nic"
	"confio/internal/tcp"
)

// tcp's delayed-ACK deadline and the stack's timer scan period.
const (
	ackDelay  = 5 * time.Millisecond
	timerScan = time.Millisecond
)

// segsOut is the two endpoints' summed SegsOut.
func segsOut(a, b *tcp.Endpoint) uint64 { return a.Stats().SegsOut + b.Stats().SegsOut }

// TestDelayedAckNeverStalls: a one-way write nobody answers is
// acknowledged by the receiver's timer, within the delay plus the stack's
// timer scan plus one bounded wait of the data's arrival, and the sender
// never retransmits. The fastest of a few trials is asserted: the host
// stalls goroutines for milliseconds now and then.
func TestDelayedAckNeverStalls(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	l, err := sb.Listen(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := sa.Dial(ipB, 9, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := l.AcceptTimeout(5 * time.Second); err != nil { // and never read
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the handshake's segments drain

	// await polls f until it holds and returns when it saw it hold.
	await := func(trial int, what string, f func() bool) time.Time {
		for start := time.Now(); !f(); time.Sleep(20 * time.Microsecond) {
			if time.Since(start) > time.Second {
				t.Fatalf("trial %d: %s took over a second", trial, what)
			}
		}
		return time.Now()
	}
	const bound = ackDelay + timerScan + nic.WaitBound
	fastest := time.Duration(1<<63 - 1)
	for trial := 0; trial < 10; trial++ {
		got, out, acked := sb.TCP.Stats().SegsIn, sb.TCP.Stats().SegsOut, sa.TCP.Stats().SegsIn
		start := time.Now()
		if _, err := c.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		arrived := await(trial, "the data's arrival", func() bool { return sb.TCP.Stats().SegsIn > got })
		sent := await(trial, "the ACK", func() bool { return sb.TCP.Stats().SegsOut > out })
		await(trial, "the ACK's arrival", func() bool { return sa.TCP.Stats().SegsIn > acked })
		if d := sent.Sub(start); d < ackDelay {
			t.Fatalf("trial %d: acknowledged %v after the write, before the %v delay", trial, d, ackDelay)
		}
		if n := sb.TCP.Stats().SegsOut - out; n != 1 {
			t.Fatalf("trial %d: the receiver sent %d segments, want one ACK", trial, n)
		}
		fastest = min(fastest, sent.Sub(arrived))
	}
	if fastest > bound {
		t.Fatalf("fastest acknowledgment took %v from the data's arrival, want at most %v", fastest, bound)
	}
	if st := sa.TCP.Stats(); st.Retransmits != 0 || st.FastRetransmits != 0 {
		t.Fatalf("sender retransmitted: %+v", st)
	}
	t.Logf("fastest acknowledgment %v after the data's arrival (bound %v)", fastest, bound)
}

// TestEchoIsTwoSegments: on an established connection an echo is a
// request and a reply, each carrying the acknowledgment of the other, so
// it adds exactly 2 to the endpoints' summed SegsOut, not 4. An exchange
// that ends more than the delay after the previous one began may include
// a timer's ACK, so only the quick ones must read exactly 2.
func TestEchoIsTwoSegments(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	l, err := sb.Listen(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		s, err := l.AcceptTimeout(5 * time.Second)
		if err != nil {
			return
		}
		defer s.Close()
		buf := make([]byte, 256)
		for {
			n, err := s.Read(buf)
			if err != nil {
				return
			}
			if _, err := s.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	c, err := sa.Dial(ipB, 7, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))

	msg, got := bytes.Repeat([]byte{0xEC}, 256), make([]byte, 256)
	exact := 0
	prev := time.Now() // nothing is owed before the first echo
	for i := 0; i < 20; i++ {
		start, before := time.Now(), segsOut(sa.TCP, sb.TCP)
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(readerOf(c), got); err != nil {
			t.Fatal(err)
		}
		n := segsOut(sa.TCP, sb.TCP) - before
		quick := time.Since(prev) < ackDelay
		prev = start
		switch {
		case n == 2:
			exact++
		case n < 2 || quick:
			t.Fatalf("echo %d added %d segments, want 2", i, n)
		}
	}
	if exact == 0 {
		t.Fatal("no echo was a request and a reply alone")
	}
	if st := sa.TCP.Stats(); st.Retransmits != 0 {
		t.Fatalf("client retransmitted: %+v", st)
	}
}
