package netstack_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"confio/internal/ipv4"
	"confio/internal/netstack"
	"confio/internal/netvsc"
	"confio/internal/nic"
	"confio/internal/safering"
	"confio/internal/simnet"
	"confio/internal/tcp"
	"confio/internal/virtio"
)

var (
	ipA = ipv4.Addr{10, 0, 0, 1}
	ipB = ipv4.Addr{10, 0, 0, 2}
)

// transport constructs a guest/host NIC pair for each transport family.
type transport struct {
	name string
	mk   func(t *testing.T, last byte) (nic.Guest, nic.Host)
}

func transports() []transport {
	return []transport{
		{"safering", func(t *testing.T, last byte) (nic.Guest, nic.Host) {
			cfg := safering.DefaultConfig()
			cfg.MAC[5] = last
			ep, err := safering.New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ep.NIC(), safering.NewHostPort(ep.Shared()).NIC()
		}},
		{"virtio", func(t *testing.T, last byte) (nic.Guest, nic.Host) {
			cfg := virtio.DefaultConfig()
			cfg.MAC[5] = last
			cfg.Hardening = virtio.FullHardening()
			d, dv, err := virtio.NewPair(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return d.NIC(), dv.NIC()
		}},
		{"netvsc", func(t *testing.T, last byte) (nic.Guest, nic.Host) {
			cfg := netvsc.DefaultConfig()
			cfg.MAC[5] = last
			cfg.Hardening = netvsc.FullHardening()
			d, h, err := netvsc.New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			return d.NIC(), h.NIC()
		}},
	}
}

// twoStacks builds two stacks joined by a simulated switch and returns
// the switch ports for impairment injection.
func twoStacks(t *testing.T, tr transport) (*netstack.Stack, *netstack.Stack, []*simnet.Port) {
	t.Helper()
	net := simnet.New()
	ga, ha := tr.mk(t, 0xA)
	gb, hb := tr.mk(t, 0xB)
	porta, portb := net.NewPort(), net.NewPort()
	pa := nic.StartPump(ha, porta)
	pb := nic.StartPump(hb, portb)
	sa := netstack.New(ga, ipA)
	sb := netstack.New(gb, ipB)
	sa.Start()
	sb.Start()
	t.Cleanup(func() {
		sa.Close()
		sb.Close()
		pa.Stop()
		pb.Stop()
	})
	return sa, sb, []*simnet.Port{porta, portb}
}

func TestTCPEchoOverEveryTransport(t *testing.T) {
	for _, tr := range transports() {
		t.Run(tr.name, func(t *testing.T) {
			sa, sb, _ := twoStacks(t, tr)
			l, err := sb.Listen(7, 4)
			if err != nil {
				t.Fatal(err)
			}
			go func() {
				s, err := l.AcceptTimeout(10 * time.Second)
				if err != nil {
					return
				}
				buf := make([]byte, 2048)
				for {
					n, err := s.Read(buf)
					if err != nil {
						s.Close()
						return
					}
					s.Write(buf[:n])
				}
			}()

			c, err := sa.Dial(ipB, 7, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("echo across the confidential boundary")
			if _, err := c.Write(msg); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(msg))
			c.SetReadDeadline(time.Now().Add(10 * time.Second))
			if _, err := io.ReadFull(readerOf(c), got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, msg) {
				t.Fatalf("echo mismatch: %q", got)
			}
			c.Close()
		})
	}
}

type rd struct {
	r interface{ Read([]byte) (int, error) }
}

func (x rd) Read(p []byte) (int, error) { return x.r.Read(p) }
func readerOf(r interface{ Read([]byte) (int, error) }) io.Reader {
	return rd{r}
}

// echoServer accepts on l and echoes each connection until it closes.
func echoServer(l *tcp.Listener) {
	for {
		s, err := l.Accept()
		if err != nil {
			return
		}
		go func() {
			defer s.Close()
			buf := make([]byte, 2048)
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
	}
}

// TestARPResolutionHappensOnce: a handshake and five echoes to one
// neighbour ride on one resolution of its address (two at most, should a
// retransmission race the first answer).
func TestARPResolutionHappensOnce(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	l, err := sb.Listen(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go echoServer(l)
	c, err := sa.Dial(ipB, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	got := make([]byte, 1)
	for i := 0; i < 5; i++ {
		if _, err := c.Write([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(readerOf(c), got); err != nil || got[0] != byte(i) {
			t.Fatalf("echo %d: %v %v", i, got, err)
		}
	}
	st := sa.Stats()
	if st.ARPRequests == 0 {
		t.Fatal("no ARP request issued")
	}
	if st.ARPRequests > 2 {
		t.Fatalf("ARP requested %d times for one neighbour", st.ARPRequests)
	}
}

func TestTCPTransferOverLossyNetwork(t *testing.T) {
	sa, sb, ports := twoStacks(t, transports()[0])
	l, err := sb.Listen(9000, 2)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan []byte, 1)
	go func() {
		s, err := l.AcceptTimeout(10 * time.Second)
		if err != nil {
			done <- nil
			return
		}
		data, _ := io.ReadAll(readerOf(s))
		done <- data
	}()

	c, err := sa.Dial(ipB, 9000, 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Impair AFTER establishment to keep the test fast.
	for _, p := range ports {
		p.Impair(simnet.Impairment{DropEvery: 9, Seed: 1})
	}
	payload := make([]byte, 128<<10)
	for i := range payload {
		payload[i] = byte(i * 11)
	}
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case got := <-done:
		if !bytes.Equal(got, payload) {
			t.Fatalf("lossy transfer corrupted (%d bytes)", len(got))
		}
	case <-time.After(60 * time.Second):
		t.Fatal("transfer timed out")
	}
}

func TestStackStatsProgress(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	l, err := sb.Listen(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := sa.Dial(ipB, 2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if sa.Stats().FramesOut == 0 || sb.Stats().FramesIn == 0 {
		t.Fatalf("stats: %+v / %+v", sa.Stats(), sb.Stats())
	}
	if sa.IP() != ipA {
		t.Fatal("IP accessor")
	}
}

func TestTwoStacksManyTransfersSequential(t *testing.T) {
	sa, sb, _ := twoStacks(t, transports()[0])
	l, err := sb.Listen(80, 8)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			s, err := l.Accept()
			if err != nil {
				return
			}
			go func(s interface {
				Read([]byte) (int, error)
				Write([]byte) (int, error)
				Close() error
			}) {
				buf := make([]byte, 4096)
				n, _ := s.Read(buf)
				s.Write(buf[:n])
				s.Close()
			}(s)
		}
	}()
	for i := 0; i < 10; i++ {
		c, err := sa.Dial(ipB, 80, 10*time.Second)
		if err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		msg := []byte(fmt.Sprintf("request-%d", i))
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		got := make([]byte, len(msg))
		c.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.ReadFull(readerOf(c), got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("transfer %d corrupted", i)
		}
		c.Close()
	}
}
