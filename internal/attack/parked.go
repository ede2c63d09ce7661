package attack

import (
	"errors"
	"fmt"
	"time"

	"confio/internal/arp"
	"confio/internal/chaos"
	"confio/internal/ether"
	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/nic"
	"confio/internal/safering"
)

// The parked-poller scenarios attack the wake path, not the ring: a live
// network stack sits on the device, idle and parked on the RXUsed
// producer index (netstack.loop), while the host abuses everything that
// decides *when* that stack runs — the event words, and the producer
// index whose every store pokes the parked stack awake. The wake is a
// hint: all it can buy the host is a poll, and every poll is the same
// validated dequeue a spinning stack would make.

var (
	parkedStackIP = ipv4.Addr{10, 9, 0, 1}
	parkedHostIP  = ipv4.Addr{10, 9, 0, 2}
	parkedHostMAC = ether.MAC{0x02, 0, 0, 0, 0x66, 0x66}
)

// parkedStack is a device with a live stack on its guest side and the
// attacker holding every queue's host side.
type parkedStack struct {
	stack *netstack.Stack
	eps   []*safering.Endpoint
	hps   []*safering.HostPort
	buf   []byte
}

func newParkedStack(cfg safering.DeviceConfig, queues int) *parkedStack {
	p := &parkedStack{buf: make([]byte, cfg.FrameCap())}
	d := rig(cfg, queues)
	for q := 0; q < queues; q++ {
		ep, hp := d.Queue(q)
		p.eps, p.hps = append(p.eps, ep), append(p.hps, hp)
	}
	var guest nic.Guest = p.eps[0].NIC()
	if m, ok := d.(*chaos.MultiDevice); ok {
		guest = m.M.NIC()
	}
	p.stack = netstack.New(guest, parkedStackIP)
	p.stack.Start()
	time.Sleep(2 * time.Millisecond) // the loop spins down and parks
	return p
}

// arpRoundTrip is the live traffic: the host asks who has the stack's
// address on queue 0 and must find the stack's reply on some TX queue.
// It returns once the stack has also counted the reply it sent: the
// stack publishes a frame before it counts it, so a Stats snapshot taken
// as soon as the host pops the reply could miss it, and a later one
// would then see FramesOut move with nothing sent.
func (p *parkedStack) arpRoundTrip() error {
	f := make([]byte, ether.HeaderLen+arp.PacketLen)
	ether.PutHeader(f, ether.Broadcast, parkedHostMAC, ether.TypeARP)
	arp.Put(f[ether.HeaderLen:], arp.Request(parkedHostMAC, [4]byte(parkedHostIP), [4]byte(parkedStackIP)))
	out := p.stack.Stats().FramesOut
	if err := p.hps[0].Push(f); err != nil {
		return fmt.Errorf("push: %w", err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, hp := range p.hps {
			n, err := hp.Pop(p.buf)
			if errors.Is(err, nic.ErrEmpty) {
				continue
			}
			if err != nil {
				return fmt.Errorf("pop: %w", err)
			}
			fr, err := ether.Parse(p.buf[:n])
			if err != nil || fr.Type != ether.TypeARP {
				return fmt.Errorf("stack transmitted a non-ARP frame (%d bytes)", n)
			}
			rep, err := arp.Parse(fr.Payload)
			if err != nil || rep.Op != arp.OpReply || rep.SenderIP != [4]byte(parkedStackIP) || rep.TargetMAC != parkedHostMAC {
				return fmt.Errorf("stack's ARP reply is wrong: %+v (%v)", rep, err)
			}
			for p.stack.Stats().FramesOut == out {
				if time.Now().After(deadline) {
					return errors.New("parked stack never counted the reply it sent")
				}
				time.Sleep(20 * time.Microsecond)
			}
			return nil
		}
		time.Sleep(20 * time.Microsecond)
	}
	return errors.New("parked stack never answered")
}

func (p *parkedStack) dead() error {
	for _, ep := range p.eps {
		if err := ep.Dead(); err != nil {
			return err
		}
	}
	return p.stack.Degraded()
}

// eventIdxLieParked re-runs the event-idx lie against a live parked
// stack: garbage wake thresholds on every queue, both directions, before
// every exchange. The stack must keep answering and nothing may die.
func eventIdxLieParked(cfg safering.DeviceConfig, queues int) error {
	p := newParkedStack(cfg, queues)
	defer p.stack.Close()
	garbage := []uint64{^uint64(0), 1 << 63, 5, 0}
	for i := 0; i < 32; i++ {
		for _, ep := range p.eps {
			ep.Shared().TX.Indexes().StoreEvent(garbage[i%len(garbage)])
			ep.Shared().RXUsed.Indexes().StoreEvent(garbage[(i+1)%len(garbage)])
		}
		if err := p.arpRoundTrip(); err != nil {
			return fmt.Errorf("round %d under lying thresholds: %w", i, err)
		}
	}
	if err := p.dead(); err != nil {
		return fmt.Errorf("lying thresholds killed the parked stack: %w", err)
	}
	return nil
}

// wakeSpam is the attack the park adds surface for: every store to the
// RXUsed producer index pokes the parked stack, so the host stores to it
// as fast as it can. Re-storing the current value buys empty validated
// polls and nothing else; storing garbage buys one validated poll, which
// fail-deads the device like any other overclaim.
func wakeSpam(name string, cfg safering.DeviceConfig, queues int) Result {
	p := newParkedStack(cfg, queues)
	defer p.stack.Close()
	if err := p.arpRoundTrip(); err != nil {
		return compromised(AtkWakeSpam, name, "healthy baseline: "+err.Error())
	}
	before := p.stack.Stats()
	for i := 0; i < 10000; i++ {
		for _, ep := range p.eps {
			ix := ep.Shared().RXUsed.Indexes()
			ix.StoreProd(ix.LoadProd())
		}
	}
	time.Sleep(2 * time.Millisecond)
	if after := p.stack.Stats(); after != before {
		return compromised(AtkWakeSpam, name, fmt.Sprintf("empty wakes moved the stack: %+v → %+v", before, after))
	}
	if err := p.dead(); err != nil {
		return compromised(AtkWakeSpam, name, "wake spam killed the device: "+err.Error())
	}
	if err := p.arpRoundTrip(); err != nil {
		return compromised(AtkWakeSpam, name, "after the spam: "+err.Error())
	}

	// Garbage: the poke makes the parked stack look, and what it finds
	// goes through checkPeerProd.
	before = p.stack.Stats()
	p.eps[0].Shared().RXUsed.Indexes().StoreProd(uint64(cfg.Slots) * 4)
	deadline := time.Now().Add(2 * time.Second)
	for p.stack.Degraded() == nil {
		if time.Now().After(deadline) {
			return compromised(AtkWakeSpam, name, "parked stack never validated the garbage index")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if err := p.eps[0].Dead(); !errors.Is(err, safering.ErrProtocol) {
		return compromised(AtkWakeSpam, name, fmt.Sprintf("garbage index did not fail-dead the device: %v", err))
	}
	if after := p.stack.Stats(); after.FramesIn != before.FramesIn {
		return compromised(AtkWakeSpam, name, "garbage index delivered frames to the stack")
	}
	return blocked(AtkWakeSpam, name, "a poke buys one validated poll: empty wakes absorbed, garbage index fatal")
}
