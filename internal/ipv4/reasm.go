package ipv4

import (
	"sort"
	"sync"
	"time"
)

// Reassembler reconstructs fragmented IPv4 packets. Incomplete packets
// expire after a timeout, and total buffered bytes are bounded so a
// malicious peer cannot exhaust memory with fragment floods.
type Reassembler struct {
	mu      sync.Mutex
	pending map[reasmKey]*reasmState
	timeout time.Duration
	maxBuf  int
	buffer  int
}

type reasmKey struct {
	src, dst Addr
	id       uint16
	proto    byte
}

type reasmState struct {
	frags    []frag
	haveLast bool
	// end is where the furthest-reaching held fragment ends: the
	// datagram's end once its last fragment is held.
	end     int
	arrived time.Time
	bytes   int
}

type frag struct {
	off  int
	data []byte
}

// NewReassembler creates a reassembler. timeout<=0 defaults to 30s;
// maxBuf<=0 defaults to 1 MiB.
func NewReassembler(timeout time.Duration, maxBuf int) *Reassembler {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	if maxBuf <= 0 {
		maxBuf = 1 << 20
	}
	return &Reassembler{pending: make(map[reasmKey]*reasmState), timeout: timeout, maxBuf: maxBuf}
}

// Add processes one packet. Unfragmented packets return their payload
// immediately. Fragments return (nil,false) until the packet completes,
// then the reassembled payload.
func (r *Reassembler) Add(h Header, payload []byte, now time.Time) ([]byte, bool) {
	if h.Flags&FlagMF == 0 && h.FragOff == 0 {
		return payload, true
	}
	key := reasmKey{src: h.Src, dst: h.Dst, id: h.ID, proto: h.Proto}

	r.mu.Lock()
	defer r.mu.Unlock()
	r.expireLocked(now)

	st := r.pending[key]
	if st == nil {
		st = &reasmState{arrived: now}
		r.pending[key] = st
	}
	end, last := int(h.FragOff)+len(payload), h.Flags&FlagMF == 0
	// A fragment flood, a fragment that ends past the datagram's end (the
	// last fragment's, or the most a datagram carries), or a last fragment
	// that ends before data already held: drop the whole pending packet.
	if r.buffer+len(payload) > r.maxBuf || end > MaxPayload ||
		(st.haveLast && end > st.end) || (last && end < st.end) {
		r.buffer -= st.bytes
		delete(r.pending, key)
		return nil, false
	}
	cp := make([]byte, len(payload))
	copy(cp, payload)
	st.frags = append(st.frags, frag{off: int(h.FragOff), data: cp})
	st.bytes += len(cp)
	r.buffer += len(cp)
	st.end = max(st.end, end)
	st.haveLast = st.haveLast || last
	if !st.haveLast {
		return nil, false
	}

	// Check contiguous coverage [0, end).
	sort.Slice(st.frags, func(i, j int) bool { return st.frags[i].off < st.frags[j].off })
	next := 0
	for _, f := range st.frags {
		if f.off > next {
			return nil, false // hole
		}
		if end := f.off + len(f.data); end > next {
			next = end
		}
	}
	if next < st.end {
		return nil, false
	}

	out := make([]byte, st.end)
	for _, f := range st.frags {
		copy(out[f.off:], f.data)
	}
	r.buffer -= st.bytes
	delete(r.pending, key)
	return out, true
}

// Pending returns the number of incomplete packets held.
func (r *Reassembler) Pending() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

func (r *Reassembler) expireLocked(now time.Time) {
	for k, st := range r.pending {
		if now.Sub(st.arrived) > r.timeout {
			r.buffer -= st.bytes
			delete(r.pending, k)
		}
	}
}
