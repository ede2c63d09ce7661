package safering_test

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/nic"
	"confio/internal/safering"
)

// The hostile-producer-index table: every consumer of a peer's producer
// index — the guest's receive, the host's pop, the host's free-slab pop
// (reached through Push) and the storage backend — faces the same
// values. Each rig leaves its consumer's tail past zero and every slot
// holding an honest entry, so a consumer that read any slot would
// deliver or serve something.

const tableSlots = 8

// warm is how many entries each rig moves honestly before the table's
// index is stored: the tail under test.
const warm = 3

// consumerRig is one consumer, ready for one poll.
type consumerRig struct {
	ix    *safering.Indexes   // the producer index the peer writes
	poll  func() (int, error) // one consumer poll: entries delivered or served
	moved func() int          // entries delivered or served since the rig was built
}

type consumerRow struct {
	name  string
	class error // the ErrProtocol its violations wrap
	rig   func(t *testing.T) *consumerRig
}

func tableConfig() safering.DeviceConfig {
	cfg := safering.DefaultConfig()
	cfg.Slots, cfg.Mode = tableSlots, safering.SharedArea
	return cfg
}

func tableFrame(i int) []byte {
	f := make([]byte, 64)
	f[0] = byte(i + 1)
	return f
}

// tableFrames is one ring's worth of frames.
func tableFrames() [][]byte {
	frames := make([][]byte, tableSlots)
	for i := range frames {
		frames[i] = tableFrame(i)
	}
	return frames
}

func mustNil(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// warmRX attaches an honest host to ep and moves warm frames to the
// guest, releasing each: its slab is reposted, so the free ring holds
// tableSlots slabs again.
func warmRX(t *testing.T, ep *safering.Endpoint) *safering.HostPort {
	hp := safering.NewHostPort(ep.Shared())
	for i := 0; i < warm; i++ {
		mustNil(t, hp.Push(tableFrame(i)))
		f, err := ep.Recv()
		mustNil(t, err)
		f.Release()
	}
	return hp
}

// guestReceiveRig: the guest's RX-used consumer, with every RX slot
// holding a frame the honest host pushed.
func guestReceiveRig(t *testing.T) *consumerRig {
	ep, err := safering.New(tableConfig(), nil)
	mustNil(t, err)
	hp := warmRX(t, ep)
	if n, err := hp.PushBatch(tableFrames()); n != tableSlots || err != nil {
		t.Fatalf("fill: %d, %v", n, err)
	}
	delivered := 0
	return &consumerRig{
		ix: ep.Shared().RXUsed.Indexes(),
		poll: func() (int, error) {
			out := make([]*safering.RxFrame, tableSlots)
			n, err := ep.RecvBatch(out)
			for _, f := range out[:n] {
				f.Release()
			}
			delivered += n
			if err == nic.ErrEmpty {
				err = nil
			}
			return n, err
		},
		moved: func() int { return delivered },
	}
}

// hostPopRig: the host's TX consumer, with every TX slot holding a
// frame the honest guest sent.
func hostPopRig(t *testing.T) *consumerRig {
	ep, err := safering.New(tableConfig(), nil)
	mustNil(t, err)
	hp := safering.NewHostPort(ep.Shared())
	buf := make([]byte, ep.Config().FrameCap())
	for i := 0; i < warm; i++ {
		mustNil(t, ep.Send(tableFrame(i)))
		_, err := hp.Pop(buf)
		mustNil(t, err)
	}
	if n, err := ep.SendBatch(tableFrames()); n != tableSlots || err != nil {
		t.Fatalf("fill: %d, %v", n, err)
	}
	popped := 0
	return &consumerRig{
		ix: ep.Shared().TX.Indexes(),
		poll: func() (int, error) {
			bufs, lens := make([][]byte, tableSlots), make([]int, tableSlots)
			for i := range bufs {
				bufs[i] = make([]byte, ep.Config().FrameCap())
			}
			n, err := hp.PopBatch(bufs, lens)
			popped += n
			if err == nic.ErrEmpty {
				err = nil
			}
			return n, err
		},
		moved: func() int { return popped },
	}
}

// hostFreeSlabRig: the host's RX-free consumer, reached through Push:
// every free slot holds a slab the guest posted, and each frame pushed
// takes one. What moves is what the guest's RX ring received.
func hostFreeSlabRig(t *testing.T) *consumerRig {
	ep, err := safering.New(tableConfig(), nil)
	mustNil(t, err)
	hp := warmRX(t, ep)
	used := ep.Shared().RXUsed.Indexes()
	return &consumerRig{
		ix: ep.Shared().RXFree.Indexes(),
		poll: func() (int, error) {
			n, err := hp.PushBatch(tableFrames())
			if err == nic.ErrFull {
				err = nil
			}
			return n, err
		},
		moved: func() int { return int(used.LoadProd()) - warm },
	}
}

// countingDisk counts the writes the backend serves.
type countingDisk struct {
	blockdev.Disk
	writes atomic.Int64
}

func (d *countingDisk) WriteSector(lba uint64, data []byte) error {
	d.writes.Add(1)
	return d.Disk.WriteSector(lba, data)
}

// backendRig: blkring's backend, with every request slot holding a
// write a waiting guest submitted. Cleanup restores the guest's index
// and serves the rest, so the submitter returns.
func backendRig(t *testing.T) *consumerRig {
	ep, err := blkring.New(tableSlots, 64, nil)
	mustNil(t, err)
	disk := &countingDisk{Disk: blockdev.NewMemDisk(64)}
	be := blkring.NewBackend(ep.Shared(), disk)
	be.Start()
	mustNil(t, ep.WriteSectors(0, make([]byte, warm*blockdev.SectorSize)))
	be.Stop()
	ix := ep.Shared().Ring.Indexes()
	done := make(chan error, 1)
	go func() { done <- ep.WriteSectors(warm, make([]byte, tableSlots*blockdev.SectorSize)) }()
	for ix.LoadProd() != warm+tableSlots {
		select {
		case err := <-done:
			t.Fatalf("submitter returned before the backend served: %v", err)
		default:
			runtime.Gosched()
		}
	}
	t.Cleanup(func() {
		ix.StoreProd(warm + tableSlots)
		if _, err := be.Step(); err != nil {
			t.Errorf("serving the rest: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("submitter: %v", err)
		}
	})
	base := disk.writes.Load()
	return &consumerRig{
		ix: ix,
		poll: func() (int, error) {
			before := disk.writes.Load()
			_, err := be.Step()
			return int(disk.writes.Load() - before), err
		},
		moved: func() int { return int(disk.writes.Load() - base) },
	}
}

var consumerRows = []consumerRow{
	{"guest-receive", safering.ErrProtocol, guestReceiveRig},
	{"host-pop", safering.ErrProtocol, hostPopRig},
	{"host-free-slab-pop", safering.ErrProtocol, hostFreeSlabRig},
	{"storage-backend", blkring.ErrProtocol, backendRig},
}

// TestHostileProducerIndexIsFatalToEveryConsumer: a producer index that
// runs behind the tail, or claims more than the ring holds, is fatal to
// every consumer — with its class's ErrProtocol, naming the bound it
// broke — before any slot is read: nothing is delivered or served, and
// nothing is handed back. The honest values tail+1 … tail+Slots each
// move exactly that many entries.
func TestHostileProducerIndexIsFatalToEveryConsumer(t *testing.T) {
	hostile := []struct {
		name  string
		prod  uint64
		bound string // the check that must catch it
	}{
		{"tail-1", warm - 1, "behind consumer"},
		{"tail+slots+1", warm + tableSlots + 1, "outstanding"},
		{"max", ^uint64(0), "outstanding"},
	}
	for _, row := range consumerRows {
		for _, h := range hostile {
			t.Run(row.name+"/"+h.name, func(t *testing.T) {
				rig := row.rig(t)
				rig.ix.StoreProd(h.prod)
				for poll := 0; poll < 2; poll++ { // the first is fatal, the second sees the death
					n, err := rig.poll()
					if !errors.Is(err, row.class) {
						t.Fatalf("poll %d of producer index %d: (%d, %v), want %v", poll, h.prod, n, err, row.class)
					}
					if poll == 0 && !strings.Contains(err.Error(), h.bound) {
						t.Fatalf("producer index %d: %v, want the %q bound", h.prod, err, h.bound)
					}
				}
				if m := rig.moved(); m != 0 {
					t.Fatalf("producer index %d: %d entries delivered or served", h.prod, m)
				}
				if c := rig.ix.LoadCons(); c != warm {
					t.Fatalf("producer index %d: consumer index %d handed back, want %d", h.prod, c, warm)
				}
			})
		}
		for k := uint64(1); k <= tableSlots; k++ {
			t.Run(fmt.Sprintf("%s/tail+%d", row.name, k), func(t *testing.T) {
				rig := row.rig(t)
				rig.ix.StoreProd(warm + k)
				n, err := rig.poll()
				if err != nil || uint64(n) != k || rig.moved() != int(k) {
					t.Fatalf("honest producer index tail+%d: (%d, %v), %d moved", k, n, err, rig.moved())
				}
				if c := rig.ix.LoadCons(); c != warm+k {
					t.Fatalf("honest producer index tail+%d: consumer index %d, want %d", k, c, warm+k)
				}
			})
		}
	}
}

// TestConsumerParkTakesTheStoresToken pins the one park under every
// consumer: the producer's index store puts a token on the wake the
// consumer registered, a park whose re-check sees a waiting slot reports
// it instead of blocking, an unparked consumer gets no token, and Arm
// parks as well as publishing its tail as the event index (Suppress
// moves it to tail-1).
func TestConsumerParkTakesTheStoresToken(t *testing.T) {
	r, err := safering.NewRing(tableSlots, 64)
	mustNil(t, err)
	ix := r.Indexes()
	var c safering.Consumer
	c.Init(r, nil, func(err error) error { return err })
	wake := make(chan struct{}, 1)
	token := func() bool {
		select {
		case <-wake:
			return true
		default:
			return false
		}
	}
	consume := func() {
		if n, err := c.Drain(tableSlots, func(int, uint64) error { return nil }); n == 0 || err != nil {
			t.Fatalf("drain: %d, %v", n, err)
		}
	}
	for tail := uint64(0); tail < 2*tableSlots; tail++ {
		if c.Park(wake) {
			t.Fatalf("tail %d: idle ring: the park reported a waiting slot", tail)
		}
		ix.StoreProd(tail + 1)
		if !token() {
			t.Fatalf("tail %d: the producer's store left no token on the registered wake", tail)
		}
		if !c.Park(wake) {
			t.Fatalf("tail %d: the park's re-check missed the waiting slot", tail)
		}
		c.Unpark()
		consume()
	}
	tail := uint64(2 * tableSlots)
	ix.StoreProd(tail + 1)
	if token() {
		t.Fatal("an unparked consumer was poked")
	}
	consume()
	tail++
	if c.Arm(wake) || ix.LoadEvent() != tail {
		t.Fatalf("Arm on an idle ring: event index %d, want %d, and no waiting slot", ix.LoadEvent(), tail)
	}
	ix.StoreProd(tail + 1)
	if !token() || !c.Arm(nil) {
		t.Fatal("an armed consumer missed the producer's store")
	}
	c.Suppress()
	if ix.LoadEvent() != tail-1 {
		t.Fatalf("Suppress left event index %d, want %d", ix.LoadEvent(), tail-1)
	}
}
