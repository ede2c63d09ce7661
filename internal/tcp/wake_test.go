package tcp

import (
	"runtime"
	"testing"
)

// newWakeRig is one established connection on an endpoint that
// transmits nowhere; the peer's segments go in through Input.
func newWakeRig() (*Endpoint, *Conn) {
	e := NewEndpoint(ipA, 1500, testHeadroom, func(Batch) {}, nil, nil)
	c := newConn(e, connKey{rip: ipB, rport: 5000, lport: 80})
	c.state = StateEstablished
	c.iss, c.sndUna, c.sndNxt, c.sndWnd = 100, 101, 101, 0xFFFF
	c.irs, c.rcvNxt, c.rcvAcked = 5000, 5001, 5001
	e.conns[c.key] = c
	return e, c
}

// waiters returns how many goroutines are blocked on c.
func waiters(c *Conn) int {
	c.ep.mu.Lock()
	defer c.ep.mu.Unlock()
	return len(c.waiters)
}

// allocsPerWake runs warm-up and then measured rounds of: wait until one
// goroutine blocks on c, wake it with wake(i), wait for it to report done.
// It returns the process's allocations per measured round.
func allocsPerWake(c *Conn, warm, rounds int, wake func(i int), done <-chan struct{}) float64 {
	var before, after runtime.MemStats
	for i := 0; i < warm+rounds; i++ {
		if i == warm {
			runtime.ReadMemStats(&before)
		}
		for waiters(c) != 1 {
			runtime.Gosched()
		}
		wake(i)
		<-done
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(rounds)
}

// TestBlockedReadWakesWithoutAllocating: a Read blocked on an empty
// receive buffer and woken by an arriving segment allocates nothing — its
// wake comes from the endpoint's pool and goes back to it.
func TestBlockedReadWakesWithoutAllocating(t *testing.T) {
	const warm, rounds, size = 20, 200, 64
	e, c := newWakeRig()
	segs := make([][]byte, warm+rounds)
	for i := range segs {
		h := Header{SrcPort: 5000, DstPort: 80, Seq: 5001 + uint32(i*size), Ack: 101,
			Flags: FlagACK | FlagPSH, Window: 0xFFFF}
		segs[i] = segment(ipB, ipA, h, make([]byte, size))
	}
	done := make(chan struct{})
	go func() {
		buf := make([]byte, size)
		for range segs {
			if n, err := c.Read(buf); n != size || err != nil {
				t.Errorf("Read = %d, %v", n, err)
			}
			done <- struct{}{}
		}
	}()
	if a := allocsPerWake(c, warm, rounds, func(i int) { e.Input(ipB, segs[i]) }, done); a >= 0.1 {
		t.Fatalf("%.2f allocs per woken Read, want 0", a)
	}
}

// TestBlockedWriteWakesWithoutAllocating: a Write blocked on a full send
// buffer and woken by an acknowledgment that frees room allocates nothing.
func TestBlockedWriteWakesWithoutAllocating(t *testing.T) {
	const warm, rounds, size = 20, 200, 1024
	e, c := newWakeRig()
	acks := make([][]byte, warm+rounds)
	for i := range acks {
		h := Header{SrcPort: 5000, DstPort: 80, Seq: 5001, Ack: 101 + uint32((i+1)*size),
			Flags: FlagACK, Window: 0xFFFF}
		acks[i] = segment(ipB, ipA, h, nil)
	}
	done := make(chan struct{})
	go func() {
		chunk := make([]byte, size)
		for n := 0; n < sndBufMax; n += size { // fill the send buffer
			if _, err := c.Write(chunk); err != nil {
				t.Error(err)
			}
		}
		for range acks {
			if _, err := c.Write(chunk); err != nil {
				t.Error(err)
			}
			done <- struct{}{}
		}
	}()
	if a := allocsPerWake(c, warm, rounds, func(i int) { e.Input(ipB, acks[i]) }, done); a >= 0.1 {
		t.Fatalf("%.2f allocs per woken Write, want 0", a)
	}
}
