package nic_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"confio/internal/nic"
)

// scalarOnly is a transport with nothing but the scalar calls, like the
// virtio, netvsc and tdisp baselines: a bounded queue either direction
// that can be made to fail terminally after a set number of calls.
type scalarOnly struct {
	q     [][]byte
	room  int   // frames Send/Push still accept before ErrFull
	dieAt int   // the dieAt-th call from now fails with die; 0 = never
	die   error // terminal error injected at dieAt
}

func (s *scalarOnly) step() error {
	if s.dieAt > 0 {
		if s.dieAt--; s.dieAt == 0 {
			return s.die
		}
	}
	return nil
}

func (s *scalarOnly) put(frame []byte) error {
	if err := s.step(); err != nil {
		return err
	}
	if s.room == 0 {
		return nic.ErrFull
	}
	s.room--
	s.q = append(s.q, frame)
	return nil
}

func (s *scalarOnly) take() ([]byte, error) {
	if err := s.step(); err != nil {
		return nil, err
	}
	if len(s.q) == 0 {
		return nil, nic.ErrEmpty
	}
	f := s.q[0]
	s.q = s.q[1:]
	return f, nil
}

type scalarGuest struct{ scalarOnly }

func (g *scalarGuest) Send(frame []byte) error { return g.put(frame) }
func (g *scalarGuest) Recv() (nic.Frame, error) {
	f, err := g.take()
	if err != nil {
		return nil, err
	}
	return &nic.BufFrame{B: f}, nil
}
func (g *scalarGuest) MAC() [6]byte { return [6]byte{2} }
func (g *scalarGuest) MTU() int     { return 1500 }

type scalarHost struct{ scalarOnly }

func (h *scalarHost) Push(frame []byte) error { return h.put(frame) }
func (h *scalarHost) Pop(buf []byte) (int, error) {
	f, err := h.take()
	return copy(buf, f), err
}
func (h *scalarHost) FrameCap() int { return 64 }

func frames(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte{byte(i), byte(i + 1)}
	}
	return out
}

// TestUpgradeScalarTransport pins the batch contract the loop shims give
// a scalar-only transport: full bursts, short counts when backpressure
// follows progress, the bare ErrFull/ErrEmpty when nothing moved, and a
// terminal error alongside the frames already moved.
func TestUpgradeScalarTransport(t *testing.T) {
	errDead := fmt.Errorf("%w: injected", nic.ErrClosed)
	cases := []struct {
		name    string
		room    int // capacity for the producing calls
		queued  int // frames waiting for the consuming calls
		dieAt   int
		burst   int
		wantN   int
		wantErr error // soft stands for ErrFull (produce) / ErrEmpty (consume)
	}{
		{name: "whole burst", room: 8, queued: 8, burst: 4, wantN: 4},
		{name: "short count", room: 3, queued: 3, burst: 8, wantN: 3},
		{name: "nothing moved", room: 0, queued: 0, burst: 4, wantN: 0, wantErr: errSoft},
		{name: "terminal mid-burst", room: 8, queued: 8, dieAt: 3, burst: 4, wantN: 2, wantErr: errDead},
		{name: "terminal first", room: 8, queued: 8, dieAt: 1, burst: 4, wantN: 0, wantErr: errDead},
		{name: "empty burst", room: 8, queued: 8, burst: 0, wantN: 0},
	}
	for _, tc := range cases {
		check := func(t *testing.T, op string, n int, err, soft error) {
			t.Helper()
			want := tc.wantErr
			if want == errSoft {
				want = soft
			}
			if n != tc.wantN || !errors.Is(err, want) || (want == nil && err != nil) {
				t.Fatalf("%s = (%d, %v), want (%d, %v)", op, n, err, tc.wantN, want)
			}
		}
		t.Run(tc.name, func(t *testing.T) {
			g := &scalarGuest{scalarOnly{room: tc.room, dieAt: tc.dieAt, die: errDead}}
			n, err := nic.UpgradeGuest(g).SendBatch(frames(tc.burst))
			check(t, "SendBatch", n, err, nic.ErrFull)
			if len(g.q) != tc.wantN {
				t.Fatalf("transport holds %d frames after SendBatch, want %d", len(g.q), tc.wantN)
			}

			g = &scalarGuest{scalarOnly{q: frames(tc.queued), dieAt: tc.dieAt, die: errDead}}
			out := make([]nic.Frame, tc.burst)
			n, err = nic.UpgradeGuest(g).RecvBatch(out)
			check(t, "RecvBatch", n, err, nic.ErrEmpty)
			for i := 0; i < n; i++ {
				if !bytes.Equal(out[i].Bytes(), frames(tc.queued)[i]) {
					t.Fatalf("RecvBatch frame %d out of order", i)
				}
			}

			h := &scalarHost{scalarOnly{room: tc.room, dieAt: tc.dieAt, die: errDead}}
			n, err = nic.UpgradeHost(h).PushBatch(frames(tc.burst))
			check(t, "PushBatch", n, err, nic.ErrFull)

			h = &scalarHost{scalarOnly{q: frames(tc.queued), dieAt: tc.dieAt, die: errDead}}
			bufs, lens := make([][]byte, tc.burst), make([]int, tc.burst)
			for i := range bufs {
				bufs[i] = make([]byte, h.FrameCap())
			}
			n, err = nic.UpgradeHost(h).PopBatch(bufs, lens)
			check(t, "PopBatch", n, err, nic.ErrEmpty)
			for i := 0; i < n; i++ {
				if !bytes.Equal(bufs[i][:lens[i]], frames(tc.queued)[i]) {
					t.Fatalf("PopBatch frame %d out of order", i)
				}
			}
		})
	}
}

// errSoft marks table rows whose expected error is the direction's own
// backpressure sentinel.
var errSoft = errors.New("soft")

// TestUpgradeIsIdentityForBatchers: a transport that already batches is
// handed back as is — same pointer, no wrapper in the hot path — and a
// multi-queue guest contributes its own queues.
func TestUpgradeIsIdentityForBatchers(t *testing.T) {
	g, h := newPair(t, [6]byte{2, 0, 0, 0, 0, 9})
	if nic.UpgradeGuest(g) != g {
		t.Fatal("UpgradeGuest wrapped a BatchGuest")
	}
	if nic.UpgradeHost(h) != h {
		t.Fatal("UpgradeHost wrapped a BatchHost")
	}
	if qs := nic.GuestQueues(g); len(qs) != 1 || qs[0] != g {
		t.Fatalf("GuestQueues of a single-queue guest = %v", qs)
	}
	mux := nic.NewGuestMux([]nic.BatchGuest{nic.UpgradeGuest(g), nic.UpgradeGuest(&scalarGuest{})})
	qs := nic.GuestQueues(mux)
	if len(qs) != 2 || qs[0] != mux.Queue(0) || qs[1] != mux.Queue(1) {
		t.Fatalf("GuestQueues of a 2-queue mux = %v", qs)
	}
	if qs := nic.GuestQueues(&scalarGuest{}); len(qs) != 1 {
		t.Fatalf("GuestQueues of a scalar guest = %d queues", len(qs))
	}
}
