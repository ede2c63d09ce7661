package tcp

import (
	"testing"
	"time"

	"confio/internal/ipv4"
)

// sent is one segment the endpoint emitted: its header and payload size.
type sent struct {
	h Header
	n int
}

// ackRig is one established connection on an endpoint whose clock moves
// only when the test moves it. The peer's segments go in through Input,
// and everything the endpoint emits is recorded in out.
type ackRig struct {
	t   *testing.T
	e   *Endpoint
	c   *Conn
	now time.Time
	out []sent
	rcv uint32 // rcvNxt when the rig was built
}

func newAckRig(t *testing.T) *ackRig {
	r := &ackRig{t: t, now: time.Unix(1_700_000_000, 0), rcv: 5001}
	r.e = NewEndpoint(ipA, 1500, testHeadroom, eachSeg(func(dst ipv4.Addr, seg []byte) {
		h, payload, err := Parse(ipA, dst, seg)
		if err != nil {
			t.Errorf("emitted segment does not parse: %v", err)
		}
		r.out = append(r.out, sent{h, len(payload)})
	}), func() time.Time { return r.now }, nil)
	c := newConn(r.e, connKey{rip: ipB, rport: 5000, lport: 80})
	c.state = StateEstablished
	c.iss, c.sndUna, c.sndNxt, c.sndWnd = 100, 101, 101, 0xFFFF
	c.irs, c.rcvNxt, c.rcvAcked = r.rcv-1, r.rcv, r.rcv
	r.e.conns[c.key] = c
	r.c = c
	return r
}

// in delivers a peer segment of n bytes at rcv+off with ACK and flags set.
func (r *ackRig) in(off int32, n int, flags uint8) {
	h := Header{SrcPort: 5000, DstPort: 80, Seq: r.rcv + uint32(off), Ack: r.c.sndNxt,
		Flags: FlagACK | flags, Window: 0xFFFF}
	r.e.Input(ipB, segment(ipB, ipA, h, make([]byte, n)))
}

// bareAcks checks that everything emitted is a bare ACK, the last of
// them acknowledging rcvNxt, and returns how many there were.
func (r *ackRig) bareAcks() int {
	r.t.Helper()
	for i, s := range r.out {
		if s.h.Flags != FlagACK || s.n != 0 {
			r.t.Fatalf("segment %d: flags %#x with %d bytes, want a bare ACK", i, s.h.Flags, s.n)
		}
	}
	if k := len(r.out); k > 0 && r.out[k-1].h.Ack != r.c.rcvNxt {
		r.t.Fatalf("last ACK acknowledges %d, want rcvNxt %d", r.out[k-1].h.Ack, r.c.rcvNxt)
	}
	return len(r.out)
}

// TestAckPolicy: in-order data is acknowledged by the next segment out or
// when ackDue passes (RFC 1122 §4.2.3.2), except that 2·MSS
// unacknowledged, a FIN, a segment out of order, old or duplicated, and a
// segment that fills a gap (RFC 5681 §4.2) are acknowledged at once.
func TestAckPolicy(t *testing.T) {
	const mss = defaultMSS
	type seg struct {
		off   int32 // from rcvNxt when the rig was built
		n     int
		flags uint8
	}
	cases := []struct {
		name  string
		segs  []seg
		acks  int  // bare ACKs sent at once
		armed bool // an acknowledgment is owed afterwards
	}{
		{"one sub-MSS segment", []seg{{0, 256, 0}}, 0, true},
		{"one full segment", []seg{{0, mss, 0}}, 0, true},
		{"2·MSS unacknowledged", []seg{{0, mss, 0}, {mss, mss, 0}}, 1, false},
		{"2·MSS in small segments", []seg{{0, mss, 0}, {mss, mss - 1, 0}, {2*mss - 1, 1, 0}}, 1, false},
		{"out of order", []seg{{mss, 100, 0}}, 1, false},
		{"gap filled", []seg{{500, 100, 0}, {0, 500, 0}}, 2, false},
		{"part of a gap filled", []seg{{1000, 100, 0}, {0, 500, 0}}, 2, false},
		{"old", []seg{{0, 256, 0}, {0, 256, 0}}, 1, false},
		{"partly old", []seg{{0, 256, 0}, {0, 512, 0}}, 1, false},
		{"FIN", []seg{{0, 0, FlagFIN}}, 1, false},
		{"data with FIN", []seg{{0, 256, FlagFIN}}, 1, false},
		{"FIN after owed data", []seg{{0, 256, 0}, {256, 0, FlagFIN}}, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newAckRig(t)
			for _, s := range tc.segs {
				r.in(s.off, s.n, s.flags)
			}
			if got := r.bareAcks(); got != tc.acks {
				t.Fatalf("%d bare ACKs sent, want %d", got, tc.acks)
			}
			if armed := !r.c.ackDue.IsZero(); armed != tc.armed {
				t.Fatalf("ack owed = %v, want %v", armed, tc.armed)
			}
			if tc.armed && !r.c.ackDue.Equal(r.now.Add(ackDelay)) {
				t.Fatalf("ack due at now+%v, want now+%v", r.c.ackDue.Sub(r.now), ackDelay)
			}
		})
	}

	t.Run("reply carries the ack", func(t *testing.T) {
		r := newAckRig(t)
		r.in(0, 256, 0)
		if _, err := r.c.Write(make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
		if len(r.out) != 1 || r.out[0].n != 256 || r.out[0].h.Ack != r.c.rcvNxt {
			t.Fatalf("sent %+v, want one 256-byte reply acknowledging %d", r.out, r.c.rcvNxt)
		}
		if !r.c.ackDue.IsZero() || !r.e.NextDeadline().Equal(r.c.rtxDeadline) {
			t.Fatalf("the reply left an ack due at %v", r.c.ackDue)
		}
	})

	t.Run("tick at ack due", func(t *testing.T) {
		r := newAckRig(t)
		r.in(0, 256, 0)
		due := r.e.NextDeadline()
		if !due.Equal(r.now.Add(ackDelay)) {
			t.Fatalf("NextDeadline = now+%v, want now+%v", due.Sub(r.now), ackDelay)
		}
		r.now = due.Add(-time.Microsecond)
		r.e.Tick()
		if got := r.bareAcks(); got != 0 {
			t.Fatalf("tick before ack due sent %d ACKs", got)
		}
		r.now = due.Add(time.Microsecond)
		r.e.Tick()
		if got := r.bareAcks(); got != 1 {
			t.Fatalf("tick after ack due sent %d ACKs, want 1", got)
		}
		r.e.Tick()
		if got := r.bareAcks(); got != 1 || !r.e.NextDeadline().IsZero() {
			t.Fatalf("a second tick sent %d ACKs in all, deadline %v", got, r.e.NextDeadline())
		}
	})
}
