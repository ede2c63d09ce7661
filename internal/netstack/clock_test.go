package netstack_test

import (
	"bytes"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
)

// countingClock is a stack clock that counts its reads.
type countingClock struct{ reads atomic.Int64 }

func (c *countingClock) now() time.Time {
	c.reads.Add(1)
	return time.Now()
}

// clockedStacks joins a client stack a, on clk, to a started server
// stack b over safe rings. a's loop runs only when startA is set;
// otherwise every frame a receives is dequeued by a goroutine blocked
// in tcp on it.
func clockedStacks(t *testing.T, clk *countingClock, startA bool) (a, b *netstack.Stack) {
	t.Helper()
	net := simnet.New()
	mk := func(last byte) (nic.Guest, nic.Host) {
		cfg := safering.DefaultConfig()
		cfg.MAC[5] = last
		ep, err := safering.New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
	}
	ga, ha := mk(0xA)
	gb, hb := mk(0xB)
	pa, pb := nic.StartPump(ha, net.NewPort()), nic.StartPump(hb, net.NewPort())
	a, b = netstack.NewWithClock(ga, ipA, clk.now), netstack.New(gb, ipB)
	if startA {
		a.Start()
	}
	b.Start()
	t.Cleanup(func() {
		a.Close()
		b.Close()
		pa.Stop()
		pb.Stop()
	})
	return a, b
}

// connect dials b's listener l from a and returns both ends.
func connect(t *testing.T, a *netstack.Stack, l *tcp.Listener, port uint16) (c, s *tcp.Conn) {
	t.Helper()
	c, err := a.Dial(ipB, port, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if s, err = l.AcceptTimeout(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	return c, s
}

// TestTimersRunWhileAReaderWaits: a waiter's step only drains and parks,
// so while a reader is blocked on one idle connection the loop goroutine
// still runs the stack's timers: data arriving on a second connection,
// which nobody reads, is acknowledged by its delayed-ACK timer within the
// delay plus the timer scan plus one bounded wait of its arrival. And
// over an idle window the loop goroutine steps about once per
// nic.WaitBound — it does not spin on a deadline already past. Each of
// its steps reads the stack clock once and the blocked reader reads it
// never, so the clock's reads count the steps. The fastest of a few
// trials is asserted: the host stalls goroutines now and then.
func TestTimersRunWhileAReaderWaits(t *testing.T) {
	clk := &countingClock{}
	sa, sb := clockedStacks(t, clk, true)
	l, err := sb.Listen(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	idle, _ := connect(t, sa, l, 9)
	quiet, s := connect(t, sa, l, 9)
	defer quiet.Close()
	read := make(chan error, 1)
	go func() {
		_, err := idle.Read(make([]byte, 1))
		read <- err
	}()
	defer idle.Close()
	time.Sleep(10 * time.Millisecond) // the handshakes' segments drain; the reader blocks
	waiting := func() {
		select {
		case err := <-read:
			t.Fatalf("the idle connection's reader returned: %v", err)
		default:
		}
	}

	await := func(trial int, what string, f func() bool) time.Time {
		for start := time.Now(); !f(); time.Sleep(20 * time.Microsecond) {
			if time.Since(start) > time.Second {
				t.Fatalf("trial %d: %s took over a second while a reader waited", trial, what)
			}
		}
		return time.Now()
	}
	const bound = ackDelay + timerScan + nic.WaitBound
	fastest := time.Duration(1<<63 - 1)
	for trial := 0; trial < 10; trial++ {
		got, out := sa.TCP.Stats().SegsIn, sa.TCP.Stats().SegsOut
		if _, err := s.Write(make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		arrived := await(trial, "the data's arrival", func() bool { return sa.TCP.Stats().SegsIn > got })
		sent := await(trial, "the ACK", func() bool { return sa.TCP.Stats().SegsOut > out })
		fastest = min(fastest, sent.Sub(arrived))
	}
	waiting()
	if fastest > bound {
		t.Fatalf("fastest acknowledgment took %v from the data's arrival while a reader waited, want at most %v", fastest, bound)
	}

	time.Sleep(10 * time.Millisecond) // the last ACK's arrival settles
	const window = 50 * time.Millisecond
	before := clk.reads.Load()
	time.Sleep(window)
	steps := clk.reads.Load() - before
	waiting()
	if limit := 2 * int64(window/nic.WaitBound); steps > limit {
		t.Fatalf("the loop goroutine read the clock %d times in an idle %v while a reader waited, want at most %d (about one step per %v)",
			steps, window, limit, nic.WaitBound)
	}
	t.Logf("fastest acknowledgment %v after the data's arrival (bound %v); %d loop steps in an idle %v", fastest, bound, steps, window)
}

// echoClockReads is what one steady-state echo costs the client's
// clock, its loop stopped, all in TCP's send and receive paths and the
// stack's route: none are a waiter's.
const echoClockReads = 3

// TestEchoClockReads pins the stack clock's reads per steady-state echo
// on a client whose loop never runs: every frame it receives is dequeued
// by its blocked reader, whose steps read no clock, so the count does
// not follow how often that reader polled.
func TestEchoClockReads(t *testing.T) {
	clk := &countingClock{}
	sa, sb := clockedStacks(t, clk, false)
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
	stuck := time.AfterFunc(10*time.Second, func() { c.Close() }) // a read with no deadline reads no clock
	defer stuck.Stop()

	msg, got := bytes.Repeat([]byte{0xEC}, 256), make([]byte, 256)
	echo := func() int64 {
		before := clk.reads.Load()
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(readerOf(c), got); err != nil {
			t.Fatal(err)
		}
		return clk.reads.Load() - before
	}
	for i := 0; i < 5; i++ { // past the handshake's first exchanges
		echo()
	}
	for i := 0; i < 50; i++ {
		if n := echo(); n != echoClockReads {
			t.Fatalf("echo %d read the stack clock %d times, want %d", i, n, echoClockReads)
		}
	}
}
