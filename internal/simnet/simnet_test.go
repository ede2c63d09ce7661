package simnet

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"
)

func mkFrame(dst, src [6]byte, payload []byte) []byte {
	f := make([]byte, 14+len(payload))
	copy(f[0:6], dst[:])
	copy(f[6:12], src[:])
	f[12], f[13] = 0x08, 0x00
	copy(f[14:], payload)
	return f
}

var (
	macA = [6]byte{2, 0, 0, 0, 0, 0xA}
	macB = [6]byte{2, 0, 0, 0, 0, 0xB}
	macC = [6]byte{2, 0, 0, 0, 0, 0xC}
)

func TestUnknownDstFloods(t *testing.T) {
	n := New()
	pa, pb, pc := n.NewPort(), n.NewPort(), n.NewPort()
	f := mkFrame(macB, macA, []byte("hi"))
	if err := pa.Send(f); err != nil {
		t.Fatal(err)
	}
	if _, ok := pa.Recv(); ok {
		t.Fatal("frame echoed to sender")
	}
	if got, ok := pb.Recv(); !ok || !bytes.Equal(got, f) {
		t.Fatal("port b did not receive flooded frame")
	}
	if _, ok := pc.Recv(); !ok {
		t.Fatal("port c did not receive flooded frame")
	}
}

func TestLearningSwitchUnicasts(t *testing.T) {
	n := New()
	pa, pb, pc := n.NewPort(), n.NewPort(), n.NewPort()
	// B talks first so the switch learns B's location.
	if err := pb.Send(mkFrame(macA, macB, []byte("hello"))); err != nil {
		t.Fatal(err)
	}
	pa.Recv()
	pc.Recv()
	// Now A->B must go only to B.
	if err := pa.Send(mkFrame(macB, macA, []byte("reply"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := pc.Recv(); ok {
		t.Fatal("learned unicast flooded to port c")
	}
	if _, ok := pb.Recv(); !ok {
		t.Fatal("unicast lost")
	}
}

func TestBroadcastAlwaysFloods(t *testing.T) {
	n := New()
	pa, pb, pc := n.NewPort(), n.NewPort(), n.NewPort()
	if err := pa.Send(mkFrame(Broadcast, macA, []byte("arp"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := pb.Recv(); !ok {
		t.Fatal("no broadcast at b")
	}
	if _, ok := pc.Recv(); !ok {
		t.Fatal("no broadcast at c")
	}
}

func TestRuntFrameRejected(t *testing.T) {
	n := New()
	p := n.NewPort()
	if err := p.Send([]byte{1, 2, 3}); err == nil {
		t.Fatal("runt frame accepted")
	}
}

func TestClosedPort(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	pb.Close()
	if err := pb.Send(mkFrame(macA, macB, nil)); err != ErrPortClosed {
		t.Fatalf("send on closed port: %v", err)
	}
	// Frames to a closed port vanish without error.
	if err := pa.Send(mkFrame(macB, macA, []byte("x"))); err != nil {
		t.Fatal(err)
	}
	if _, ok := pb.Recv(); ok {
		t.Fatal("closed port received frame")
	}
}

func TestCapture(t *testing.T) {
	n := New()
	pa, _ := n.NewPort(), n.NewPort()
	n.EnableCapture()
	f := mkFrame(macB, macA, []byte("secret"))
	if err := pa.Send(f); err != nil {
		t.Fatal(err)
	}
	cap := n.Capture()
	if len(cap) != 1 {
		t.Fatalf("capture has %d records", len(cap))
	}
	r := cap[0]
	if r.Len != len(f) || r.Src != macA || r.Dst != macB || r.EtherType != 0x0800 || r.SrcPort != 0 {
		t.Fatalf("bad record %+v", r)
	}
	n.ResetCapture()
	if len(n.Capture()) != 0 {
		t.Fatal("ResetCapture did not clear")
	}
}

func TestOnFrameObserver(t *testing.T) {
	n := New()
	pa, _ := n.NewPort(), n.NewPort()
	var seen int
	n.OnFrame(func(CaptureRecord) { seen++ })
	for i := 0; i < 5; i++ {
		if err := pa.Send(mkFrame(macB, macA, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if seen != 5 {
		t.Fatalf("observer saw %d frames", seen)
	}
}

func TestImpairmentDrop(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	pb.Impair(Impairment{DropEvery: 3})
	for i := 0; i < 9; i++ {
		if err := pa.Send(mkFrame(macB, macA, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := pb.Pending(); got != 6 {
		t.Fatalf("pending = %d, want 6 (every 3rd dropped)", got)
	}
	if pb.Drops != 3 {
		t.Fatalf("drops = %d", pb.Drops)
	}
}

func TestImpairmentDuplicate(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	pb.Impair(Impairment{DupEvery: 2})
	for i := 0; i < 4; i++ {
		if err := pa.Send(mkFrame(macB, macA, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	if got := pb.Pending(); got != 6 {
		t.Fatalf("pending = %d, want 6 (every 2nd duplicated)", got)
	}
}

func TestImpairmentReorder(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	pb.Impair(Impairment{ReorderEvery: 2})
	for i := 0; i < 5; i++ {
		if err := pa.Send(mkFrame(macB, macA, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
	}
	var got []byte
	for {
		f, ok := pb.Recv()
		if !ok {
			break
		}
		got = append(got, f[14])
	}
	// Frames 1 and 3 (2nd and 4th deliveries) are held back one slot.
	want := []byte{0, 2, 1, 4, 3}
	if !bytes.Equal(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestImpairmentCorrupt(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	pb.Impair(Impairment{CorruptEvery: 1, Seed: 42})
	orig := mkFrame(macB, macA, []byte("payload"))
	if err := pa.Send(orig); err != nil {
		t.Fatal(err)
	}
	got, ok := pb.Recv()
	if !ok {
		t.Fatal("no frame")
	}
	if bytes.Equal(got, orig) {
		t.Fatal("frame not corrupted")
	}
	diff := 0
	for i := range got {
		diff += popcount(got[i] ^ orig[i])
	}
	if diff != 1 {
		t.Fatalf("%d bits flipped, want 1", diff)
	}
}

func popcount(b byte) int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

func TestQueueOverflowDrops(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	f := mkFrame(macB, macA, []byte("x"))
	for i := 0; i < queueCap+10; i++ {
		if err := pa.Send(f); err != nil {
			t.Fatal(err)
		}
	}
	if pb.Pending() != queueCap {
		t.Fatalf("pending = %d, want cap %d", pb.Pending(), queueCap)
	}
	if pb.Drops != 10 {
		t.Fatalf("drops = %d, want 10", pb.Drops)
	}
}

// TestQueueKeepsOrderAcrossTheSeam: the port queue is a ring; frames
// queued while its head sits mid-ring wrap past the end, must come out in
// arrival order, and still tail-drop at exactly queueCap.
func TestQueueKeepsOrderAcrossTheSeam(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	seq := uint32(0)
	send := func(count int) {
		for i := 0; i < count; i++ {
			var p [4]byte
			binary.BigEndian.PutUint32(p[:], seq)
			seq++
			if err := pa.Send(mkFrame(macB, macA, p[:])); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := uint32(0)
	recv := func(count int) {
		t.Helper()
		for i := 0; i < count; i++ {
			f, ok := pb.Recv()
			if !ok {
				t.Fatalf("queue empty with frame %d outstanding", want)
			}
			if got := binary.BigEndian.Uint32(f[14:]); got != want {
				t.Fatalf("frame %d came out where %d was due", got, want)
			}
			want++
		}
	}
	send(queueCap - 100)
	recv(queueCap - 200) // head now deep in the ring, 100 frames wait
	send(queueCap)       // wraps; the last 100 do not fit
	if pb.Pending() != queueCap || pb.Drops != 100 {
		t.Fatalf("pending %d drops %d, want %d and 100", pb.Pending(), pb.Drops, queueCap)
	}
	recv(queueCap)
	if _, ok := pb.Recv(); ok {
		t.Fatal("dropped frames came back")
	}
}

func TestSendCopiesFrame(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	f := mkFrame(macB, macA, []byte("orig"))
	if err := pa.Send(f); err != nil {
		t.Fatal(err)
	}
	f[14] = 'X' // mutate after send
	got, _ := pb.Recv()
	if got[14] != 'o' {
		t.Fatal("network did not copy the frame on delivery")
	}
}

// TestPortWakeNeverLosesADelivery hands single frames across the switch
// to a receiver that blocks on the port's delivery signal whenever Recv
// comes back empty. The timeout is far past anything scheduling noise
// produces, so a delivery that failed to poke the signal fails here
// instead of hiding behind a pump's bounded wait. Run under -race.
func TestPortWakeNeverLosesADelivery(t *testing.T) {
	rounds := 100_000
	if testing.Short() {
		rounds = 10_000
	}
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	if err := pb.Send(mkFrame(macA, macB, nil)); err != nil { // teach the switch where B lives
		t.Fatal(err)
	}
	pa.Recv()
	got := make(chan byte)
	fail := make(chan string, 1)
	go func() {
		lost := time.NewTimer(time.Hour)
		defer lost.Stop()
		for i := 0; i < rounds; i++ {
			for {
				if f, ok := pb.Recv(); ok {
					got <- f[14]
					break
				}
				lost.Reset(10 * time.Second) // per delivery, not per test
				select {
				case <-pb.Wake():
					if !lost.Stop() {
						<-lost.C
					}
				case <-lost.C:
					fail <- "delivery signal lost: receiver still blocked"
					return
				}
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		if err := pa.Send(mkFrame(macB, macA, []byte{byte(i)})); err != nil {
			t.Fatal(err)
		}
		select {
		case b := <-got:
			if b != byte(i) {
				t.Fatalf("round %d delivered payload %d", i, b)
			}
		case msg := <-fail:
			t.Fatalf("round %d of %d: %s", i, rounds, msg)
		}
	}
}

// TestKnownUnicastBuildsNoTargetList: switching a frame to a learned
// destination allocates the private copy delivery makes — the wire — and
// nothing else: no per-frame target list, no closure, and the port queue
// is a fixed ring that a one-in, one-out exchange never regrows.
func TestKnownUnicastBuildsNoTargetList(t *testing.T) {
	n := New()
	pa, pb := n.NewPort(), n.NewPort()
	if err := pb.Send(mkFrame(macA, macB, nil)); err != nil {
		t.Fatal(err)
	}
	pa.Recv()
	f := mkFrame(macB, macA, make([]byte, 256))
	allocs := testing.AllocsPerRun(1000, func() {
		if err := pa.Send(f); err != nil {
			t.Fatal(err)
		}
		if _, ok := pb.Recv(); !ok {
			t.Fatal("unicast frame not delivered")
		}
	})
	if allocs != 1 {
		t.Fatalf("%.0f allocs per switched frame, want 1 (the wire copy)", allocs)
	}
}
