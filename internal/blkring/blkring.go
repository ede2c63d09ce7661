// Package blkring carries block I/O between the guest TEE and the
// untrusted host disk backend, applying the same safe-by-construction
// principles as the network safe ring (the low boundary of §3.3's
// storage generalization): a stateless SPSC request ring with masked
// indexes, single-fetch descriptor snapshots, data staged through a
// generation-tagged arena, and no negotiation. Nothing is notified
// either: there is no doorbell. Both ends poll, and an idle end parks on
// the index word the other one stores (the backend on prod, a waiting
// submitter on cons) — an unmetered hint with a bounded wait behind it,
// never state.
//
// The ring is an instance of safering's payload-generic producer engine,
// so every hardening property the network boundary has — batched
// submission with one index store per batch, bounded in-flight
// accounting, monotonic peer-index validation, fail-dead on any
// violation, epoch-tagged descriptors that make replaying a dead
// incarnation's ring itself fatal, quarantined reincarnation, and
// host-stall watchdog coverage — is inherited here rather than
// re-implemented as a parallel weaker copy.
//
// Requests complete *in place*: the host writes the status into the slot
// it consumed, and slot ownership returns to the guest with the ring's
// consumer index — there is no separate completion path to
// desynchronize. A staging slab stays checked out until the *engine*
// returns its slot: if the host never completes the request, the slab is
// never freed back into circulation (the host still holds its handle and
// may yet write it) — the endpoint fail-deads on timeout and the slab
// vanishes with the old arena at reincarnation.
package blkring

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"confio/internal/blockdev"
	"confio/internal/nic"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/shmem"
)

// Request opcodes (the low 8 bits of the slot's op word; the high 24
// bits carry the device epoch tag, exactly like a network descriptor's
// Kind word).
const (
	OpRead  uint32 = 1
	OpWrite uint32 = 2
)

// Status values (the low 8 bits of the status word the host writes into
// the consumed slot; the high 24 bits must echo the device epoch).
const (
	StatusPending uint32 = 0
	StatusOK      uint32 = 1
	StatusIOError uint32 = 2
)

const slotSize = 32

// Slot layout: op u32 @0, status u32 @4, lba u64 @8, handle u64 @16,
// len u32 @24. Op and status are epoch-stamped Kind words.

// Errors.
var (
	ErrProtocol = errors.New("blkring: fatal protocol violation")
	ErrIO       = errors.New("blkring: host reported I/O error")
	ErrDead     = errors.New("blkring: endpoint dead after violation")
	ErrTimeout  = errors.New("blkring: request timed out")
)

// DefaultTimeout bounds how long a submission waits for the host before
// declaring it dead. Generous: a merely-slow host is never killed.
const DefaultTimeout = 5 * time.Second

// Shared is the host-visible state of one incarnation.
type Shared struct {
	Ring  *safering.Ring // 32-byte slots; we use the raw region
	Data  *shmem.Arena   // sector staging slabs
	Epoch uint32         // incarnation; stamped into every op/status word
}

// slabLease is one staging slab checked out of the shared data arena for
// the lifetime of a single request. Leases live in a guest-private array
// with one entry per ring slot (the arena holds exactly ring-many slabs),
// so checking one out allocates nothing. Declaring it linear to ciovet
// makes the bufown analyzer enforce what the in-place completion
// protocol assumes: the slab returns exactly when the engine returns the
// slot (success or host I/O error), and on any fatal path it is
// deliberately *not* freed — the host may still write it, so it stays
// quarantined in the dead incarnation's arena until reincarnation
// discards both.
//
//ciovet:owned acquire=leaseSlab release=Free
type slabLease struct {
	a *shmem.Arena
	h shmem.Handle
}

// leaseSlab checks one slab out of the arena into the lease of the slot
// about to be staged. That entry is free: its previous request came home
// before the engine reported room for this one.
//
//ciovet:locked
func (e *Endpoint) leaseSlab() (*slabLease, error) {
	h, err := e.sh.Data.Alloc()
	if err != nil {
		return nil, err
	}
	l := &e.leases[e.eng.Head()&uint64(e.slots-1)]
	l.a, l.h = e.sh.Data, h
	return l, nil
}

// Free returns the slab. The arena's generation tags make a double free
// at runtime harmless, but bufown reports it at vet time.
func (l *slabLease) Free() { _ = l.a.HandleFree(shmem.FreeMsg{H: l.h}) }

// completionSpin, when non-nil, is called once per completion wait with
// the endpoint lock released. Test hook only (regression tests and the
// chaos harness play the slow or malicious host deterministically
// through it); always nil outside tests.
var completionSpin func()

// pending is the guest-private completion record of one submission; the
// engine's OnReturn hook counts its requests home. Records are recycled
// through the endpoint's free list, so a submission allocates one only
// when more submitters overlap than ever did before.
type pending struct {
	left int      // requests the host has not returned yet
	err  error    // first host-reported I/O error, in ring order
	next *pending // free-list link
}

// blkDesc is the engine payload of one request: everything the endpoint
// needs when the slot comes home.
type blkDesc struct {
	op    uint32
	lba   uint64
	lease *slabLease
	out   []byte   // read destination (nil for writes)
	res   *pending // the submission this request belongs to
}

// blkCodec encodes one request into its 32-byte ring slot, stamping the
// op and status words with the current device epoch.
type blkCodec struct{ e *Endpoint }

func (c blkCodec) Encode(r *safering.Ring, idx uint64, d blkDesc) {
	off := r.SlotOff(idx)
	s := r.Slots()
	s.SetU32(off+0, safering.KindWord(d.op, c.e.sh.Epoch))
	s.SetU32(off+4, safering.KindWord(StatusPending, c.e.sh.Epoch))
	s.SetU64(off+8, d.lba)
	s.SetU64(off+16, uint64(d.lease.h))
	s.SetU32(off+24, blockdev.SectorSize)
}

// Endpoint is the guest side; it implements blockdev.Disk (and
// blockdev.BatchDisk) over the ring.
type Endpoint struct {
	meter   *platform.Meter
	sectors uint64
	slots   int
	// life is the fail-dead state of the device this endpoint is a queue
	// of (the only one, or one of a Multi's).
	life *safering.Life

	mu      sync.Mutex
	sh      *Shared
	eng     *safering.Engine[blkDesc] //ciovet:guards mu
	leases  []slabLease               // one per ring slot, indexed like the ring
	free    *pending                  // recycled completion records
	clock   func() time.Time
	timeout time.Duration
	// parking is held by the one waiting submitter that parks on the
	// consumer index (the slot holds one wake; further concurrent
	// submitters only yield) and guards what it blocks on: its wake and
	// its timer.
	parking sync.Mutex
	wake    chan struct{}
	waiter  nic.Waiter
}

// New builds a guest endpoint for a backing disk of `sectors` sectors
// with a ring of `slots` requests (power of two). The meter may be nil.
func New(slots int, sectors uint64, meter *platform.Meter) (*Endpoint, error) {
	return newEndpoint(slots, sectors, meter, safering.NewLife(ErrDead))
}

// newEndpoint builds one queue of the device life belongs to.
func newEndpoint(slots int, sectors uint64, meter *platform.Meter, life *safering.Life) (*Endpoint, error) {
	e := &Endpoint{
		meter:   meter,
		sectors: sectors,
		slots:   slots,
		life:    life,
		clock:   time.Now,
		timeout: DefaultTimeout,
		wake:    make(chan struct{}, 1),
	}
	sh, err := e.newShared(0)
	if err != nil {
		return nil, err
	}
	e.sh = sh
	e.leases = make([]slabLease, slots)
	e.eng = safering.NewEngine[blkDesc](sh.Ring, nil, blkCodec{e}, meter,
		safering.EngineHooks[blkDesc]{OnReturn: e.onReturn, Fail: e.engineFail})
	life.Join(&e.mu, meter, e.rebirthLocked)
	return e, nil
}

// newShared builds one incarnation's host-visible state.
func (e *Endpoint) newShared(epoch uint32) (*Shared, error) {
	ring, err := safering.NewRing(e.slots, slotSize)
	if err != nil {
		return nil, err
	}
	arena, err := shmem.NewArena(blockdev.SectorSize, e.slots)
	if err != nil {
		return nil, err
	}
	return &Shared{Ring: ring, Data: arena, Epoch: epoch}, nil
}

// Shared exposes the host-visible state. After a reincarnation it
// returns the new instance.
func (e *Endpoint) Shared() *Shared {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sh
}

// Sectors implements blockdev.Disk.
func (e *Endpoint) Sectors() uint64 { return e.sectors }

// Epoch returns the current device incarnation.
func (e *Endpoint) Epoch() uint32 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sh.Epoch
}

// SetClock injects the time source used for submission deadlines (the
// chaos harness drives storage timeouts with a fake clock); nil resets
// to time.Now.
func (e *Endpoint) SetClock(clk func() time.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if clk == nil {
		clk = time.Now
	}
	e.clock = clk
}

// SetTimeout bounds how long a submission waits for the host;
// non-positive resets to DefaultTimeout.
func (e *Endpoint) SetTimeout(d time.Duration) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if d <= 0 {
		d = DefaultTimeout
	}
	e.timeout = d
}

// SetRecoveryPolicy installs the quarantine policy of the device this
// endpoint is a queue of (safering.Life.SetRecoveryPolicy).
func (e *Endpoint) SetRecoveryPolicy(p safering.RecoveryPolicy) { e.life.SetRecoveryPolicy(p) }

// Dead returns the fatal error, if any. On a multi-queue device a
// violation on any sibling queue counts.
func (e *Endpoint) Dead() error { return e.life.Dead() }

// fail records the fatal violation and returns the device's first cause.
func (e *Endpoint) fail(err error) error { return e.life.Kill(err, e.meter) }

// engineFail is the engine's Fail hook: index-validation errors arrive
// tagged with safering's protocol error; re-tag them with blkring's so
// callers match one storage-boundary error class.
func (e *Endpoint) engineFail(err error) error {
	if !errors.Is(err, ErrProtocol) {
		err = fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return e.fail(err)
}

// onReturn is the engine's OnReturn hook: the host returned the slot at
// pos, with the request's status written in place. The status word is
// snapshotted exactly once and must carry the current epoch tag — a
// completion recorded by a previous incarnation (or forged wholesale)
// dies here. Only on a validated, non-fatal completion does the staging
// slab go back into circulation.
func (e *Endpoint) onReturn(pos uint64, d blkDesc) error {
	off := e.sh.Ring.SlotOff(pos)
	status := e.sh.Ring.Slots().U32(off + 4) // single fetch
	e.meter.Check(1)
	if safering.KindEpoch(status) != safering.EpochTag(e.sh.Epoch) {
		return fmt.Errorf("%w: completion status %#x carries epoch %d (want %d): stale or forged incarnation",
			ErrProtocol, status, safering.KindEpoch(status), safering.EpochTag(e.sh.Epoch))
	}
	switch safering.KindCode(status) {
	case StatusOK:
		if d.op == OpRead {
			if err := e.sh.Data.Read(d.lease.h, blockdev.SectorSize, d.out); err != nil {
				// The handle came from our private record: a readback
				// failure means our own state is corrupt — fatal, and the
				// slab stays quarantined with the dying incarnation.
				return fmt.Errorf("%w: readback: %v", ErrProtocol, err)
			}
			e.meter.Copy(blockdev.SectorSize)
		}
	case StatusIOError:
		if d.res.err == nil {
			d.res.err = fmt.Errorf("%w: lba %d", ErrIO, d.lba)
		}
	default:
		return fmt.Errorf("%w: status %#x", ErrProtocol, status)
	}
	d.res.left--
	d.lease.Free()
	return nil
}

// guestYield is how many scheduling yields a completion wait spends
// before it parks: a backend runnable on this processor is handed the
// processor by the first one, which is cheaper than a wake from a park.
const guestYield = 2

// waitLocked runs one completion wait for a submission on incarnation
// sh: deadline check first (a stalled host fail-deads the endpoint with
// ErrTimeout as the cause — its staging slabs stay quarantined, see the
// package comment), then, with the lock released, a few yields and — for
// the one submitter that gets e.parking — a park on the consumer index
// bounded by nic.WaitBound, then a reap *only if the consumer index
// actually moved*: validation cost scales with validated reads, not with
// host latency or pokes. The park is Indexes.Park mirrored: register,
// re-check the raw index against the last validated value, block. The
// unlock/relock window re-acquires the mutex the caller already holds;
// it does not self-lock.
//
//ciovet:locked
func (e *Endpoint) waitLocked(sh *Shared, deadline time.Time) error {
	if e.clock().After(deadline) {
		return e.fail(fmt.Errorf("%w: host completion overdue; staging slabs quarantined until reincarnation", ErrTimeout))
	}
	ix, seen := sh.Ring.Indexes(), e.eng.ConsSeen()
	hook := completionSpin
	e.mu.Unlock()
	if hook != nil {
		hook()
	}
	for i := 0; i < guestYield && ix.LoadCons() == seen; i++ {
		runtime.Gosched()
	}
	if e.parking.TryLock() {
		ix.ParkCons(e.wake)
		if ix.LoadCons() == seen {
			e.waiter.Wait(nil, e.wake, nil, nic.WaitBound)
		}
		ix.UnparkCons()
		e.parking.Unlock()
	}
	e.mu.Lock()
	if err := e.life.DeadOp(); err != nil {
		return err
	}
	if e.sh != sh {
		return ErrDead // killed and reborn while waiting
	}
	_, _, err := e.eng.ReapIfMoved()
	return err
}

// submit issues n = len(p)/SectorSize requests starting at lba and waits
// for all of them. Submission is batched: as many requests as the ring
// has room for are staged and made visible with ONE producer-index
// store; a full ring blocks (bounded by the deadline) until the host
// returns slots — the producer can never lap the consumer and overwrite
// an in-flight request.
func (e *Endpoint) submit(op uint32, lba uint64, p []byte) error {
	n := len(p) / blockdev.SectorSize
	if n == 0 {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.life.DeadOp(); err != nil {
		return err
	}
	if lba >= e.sectors || uint64(n) > e.sectors-lba {
		return fmt.Errorf("%w: lba %d + %d sectors", blockdev.ErrOutOfRange, lba, n)
	}

	sh, deadline := e.sh, e.clock().Add(e.timeout)
	if _, err := e.eng.Reap(); err != nil {
		return err
	}
	res := e.free
	if res == nil {
		res = new(pending)
	}
	e.free, res.left, res.err = res.next, n, nil
	// Every return below leaves either nothing in flight for res or a dead
	// endpoint, whose engine drops its parked requests unreturned.
	defer func() { res.next, e.free = e.free, res }()
	for staged := 0; res.left > 0; {
		for staged < n && !e.eng.Full(e.eng.ConsSeen()) {
			if err := e.stageLocked(op, lba+uint64(staged), p, staged, res); err != nil {
				return err
			}
			staged++
		}
		e.eng.Publish()
		// Everything that fits is the host's now. Wait for completions —
		// and, while the ring is full (backpressure: every slot is an
		// in-flight request the host still owns), for room to stage the
		// rest — or die at the deadline; never overwrite.
		if err := e.waitLocked(sh, deadline); err != nil {
			return err
		}
	}
	return res.err
}

// stageLocked checks one staging slab out of the arena, fills it for
// writes, and stages the request into the engine (no publication).
//
//ciovet:locked
func (e *Endpoint) stageLocked(op uint32, lba uint64, p []byte, i int, res *pending) error {
	lease, err := e.leaseSlab()
	if err != nil {
		// In-flight requests are bounded by the ring (one slab each, and
		// the arena holds exactly ring-many slabs), so exhaustion here
		// means our own accounting is corrupt — fatal.
		return e.fail(fmt.Errorf("%w: staging slab exhausted: %v", ErrProtocol, err))
	}
	sec := p[i*blockdev.SectorSize : (i+1)*blockdev.SectorSize]
	if op == OpWrite {
		if werr := e.sh.Data.Write(lease.h, sec); werr != nil {
			// The handle is the one Alloc just returned: our own state is
			// corrupt, as on a failed readback — fatal. The host never saw
			// this slab, so it can go back.
			lease.Free()
			return e.fail(fmt.Errorf("%w: stage: %v", ErrProtocol, werr))
		}
		e.meter.Copy(blockdev.SectorSize)
	}
	d := blkDesc{op: op, lba: lba, res: res}
	if op == OpRead {
		d.out = sec
	}
	// The descriptor takes over the slab's release obligation here: the
	// engine owns it until the host returns the slot, and onReturn frees it.
	d.lease = lease
	e.eng.Stage(d)
	return nil
}

// ReadSector implements blockdev.Disk.
func (e *Endpoint) ReadSector(lba uint64, buf []byte) error {
	if len(buf) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	return e.submit(OpRead, lba, buf)
}

// WriteSector implements blockdev.Disk.
func (e *Endpoint) WriteSector(lba uint64, data []byte) error {
	if len(data) != blockdev.SectorSize {
		return blockdev.ErrBadSize
	}
	return e.submit(OpWrite, lba, data)
}

// ReadSectors implements blockdev.BatchDisk: one batched submission for
// len(p)/SectorSize contiguous sectors starting at lba.
func (e *Endpoint) ReadSectors(lba uint64, p []byte) error {
	if len(p)%blockdev.SectorSize != 0 {
		return blockdev.ErrBadSize
	}
	return e.submit(OpRead, lba, p)
}

// WriteSectors implements blockdev.BatchDisk.
func (e *Endpoint) WriteSectors(lba uint64, p []byte) error {
	if len(p)%blockdev.SectorSize != 0 {
		return blockdev.ErrBadSize
	}
	return e.submit(OpWrite, lba, p)
}

// WatchProgress implements safering.Watched over the request ring, so
// one watchdog covers the storage boundary exactly like the network one.
func (e *Endpoint) WatchProgress() (head, cons uint64, alive bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.life.Dead() != nil {
		return 0, 0, false
	}
	head = e.eng.Head()
	cons = e.sh.Ring.Indexes().LoadCons() // equality-compared only: no trust needed
	return head, cons, true
}

// WatchStall implements safering.Watched.
func (e *Endpoint) WatchStall(err error) {
	e.fail(err)
	e.meter.Stall(1)
}

// Reincarnate recovers a dead single-queue storage device
// (safering.Life.Reincarnate, the same quarantine as the network ring):
// the poisoned shared window — ring AND staging arena, including every
// slab a non-completing host still holds a handle to — is discarded and
// the fresh one at the next epoch returned. A queue of a Multi is refused
// with safering.ErrSiblings.
func (e *Endpoint) Reincarnate() (*Shared, error) {
	if err := e.life.ReincarnateSole(); err != nil {
		return nil, err
	}
	return e.Shared(), nil
}

// rebirthLocked replaces the device instance with a fresh one at the
// next epoch. Quarantined staging slabs (leases parked in the engine for
// requests the host never completed) vanish with the old arena; the
// engine drops its parked payloads in Reset.
//
//ciovet:locked
func (e *Endpoint) rebirthLocked() error {
	sh, err := e.newShared(e.sh.Epoch + 1)
	if err != nil {
		return err
	}
	e.sh = sh
	e.eng.Reset(sh.Ring, nil)
	return nil
}

// multiStripe is the steering granularity of a multi-queue device:
// contiguous runs of this many sectors stay on one queue, so batched
// spans are not shredded sector-by-sector across queues, while any given
// lba always maps to the same queue (no cross-queue ordering hazards).
const multiStripe = 16

// Multi aggregates N independent request rings into one device behind a
// shared safering.Life: a protocol violation on ANY queue fail-deads the
// WHOLE storage device, and recovery is device-wide — the same blast
// radius contract as the multi-queue NIC.
type Multi struct {
	queues  []*Endpoint
	sectors uint64
	life    *safering.Life
}

// NewMulti builds an nq-queue device (nq >= 1), each queue with its own
// ring, arena, and epoch sequence, all under one Life.
func NewMulti(nq, slots int, sectors uint64, meter *platform.Meter) (*Multi, error) {
	if nq < 1 {
		return nil, fmt.Errorf("blkring: multi: need at least 1 queue")
	}
	m := &Multi{sectors: sectors, life: safering.NewLife(ErrDead)}
	for i := 0; i < nq; i++ {
		q, err := newEndpoint(slots, sectors, meter, m.life)
		if err != nil {
			return nil, err
		}
		m.queues = append(m.queues, q)
	}
	return m, nil
}

// Queues returns the per-queue endpoints (index-aligned with Shareds),
// e.g. for watchdog registration.
func (m *Multi) Queues() []*Endpoint { return m.queues }

// Shareds returns every queue's current host-visible state.
func (m *Multi) Shareds() []*Shared {
	shs := make([]*Shared, len(m.queues))
	for i, q := range m.queues {
		shs[i] = q.Shared()
	}
	return shs
}

// Sectors implements blockdev.Disk.
func (m *Multi) Sectors() uint64 { return m.sectors }

// Dead returns the device-wide fatal error, if any.
func (m *Multi) Dead() error { return m.life.Dead() }

// queueFor steers an lba to its queue: stripe-granular and
// deterministic, so the same sector always rides the same ring.
func (m *Multi) queueFor(lba uint64) *Endpoint {
	return m.queues[(lba/multiStripe)%uint64(len(m.queues))]
}

// ReadSector implements blockdev.Disk.
func (m *Multi) ReadSector(lba uint64, buf []byte) error {
	return m.queueFor(lba).ReadSector(lba, buf)
}

// WriteSector implements blockdev.Disk.
func (m *Multi) WriteSector(lba uint64, data []byte) error {
	return m.queueFor(lba).WriteSector(lba, data)
}

// ReadSectors implements blockdev.BatchDisk, splitting the span at
// stripe boundaries so each piece is one batched submission on its
// queue.
func (m *Multi) ReadSectors(lba uint64, p []byte) error {
	return m.spanSectors(lba, p, (*Endpoint).ReadSectors)
}

// WriteSectors implements blockdev.BatchDisk.
func (m *Multi) WriteSectors(lba uint64, p []byte) error {
	return m.spanSectors(lba, p, (*Endpoint).WriteSectors)
}

func (m *Multi) spanSectors(lba uint64, p []byte, op func(*Endpoint, uint64, []byte) error) error {
	if len(p)%blockdev.SectorSize != 0 {
		return blockdev.ErrBadSize
	}
	for len(p) > 0 {
		span := multiStripe - lba%multiStripe // sectors to the stripe edge
		if rem := uint64(len(p) / blockdev.SectorSize); span > rem {
			span = rem
		}
		if err := op(m.queueFor(lba), lba, p[:span*blockdev.SectorSize]); err != nil {
			return err
		}
		lba += span
		p = p[span*blockdev.SectorSize:]
	}
	return nil
}

// Reincarnate recovers the dead device as one unit
// (safering.Life.Reincarnate) and returns every queue's new window.
func (m *Multi) Reincarnate() ([]*Shared, error) {
	if err := m.life.Reincarnate(); err != nil {
		return nil, err
	}
	return m.Shareds(), nil
}

// SetRecoveryPolicy installs the device-wide quarantine policy.
func (m *Multi) SetRecoveryPolicy(p safering.RecoveryPolicy) { m.life.SetRecoveryPolicy(p) }

// Backend is the honest host-side worker: it serves ring requests from a
// physical disk. Like every honest host component, it validates what it
// reads (mutual distrust): a producer index past the ring or an op word
// from a stale epoch stops the backend instead of being served.
//
// Idle, it is one more client of the datapath's waiter: after
// backendSpin empty, yielding polls it parks on the request ring's
// producer index, re-checks the index, and blocks until the guest's
// store pokes it, Stop or nic.WaitBound. The wait is always
// time-bounded: the guest controls when the wake fires, never whether
// the backend keeps serving or can be collected.
type Backend struct {
	sh   *Shared
	disk blockdev.Disk

	stop chan struct{}
	park chan struct{} // the wake the backend parks on prod with
	wg   sync.WaitGroup

	mu    sync.Mutex
	tail  uint64
	polls uint64 // Step calls, served or not
	buf   []byte
	dead  error
}

// NewBackend attaches a disk to the ring's host side.
func NewBackend(sh *Shared, disk blockdev.Disk) *Backend {
	return &Backend{
		sh:   sh,
		disk: disk,
		stop: make(chan struct{}),
		park: make(chan struct{}, 1),
		buf:  make([]byte, blockdev.SectorSize),
	}
}

// Dead returns the violation that stopped the backend, if any.
func (b *Backend) Dead() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dead
}

// backendSpin is how many consecutive empty polls the backend makes,
// yielding the processor after each, before it arms and blocks. The
// submitter is busy for microseconds between requests (the crypto above
// the ring): a backend that is still runnable when the next one arrives
// takes it without a wake-up, which on this runtime costs the submitter
// a futex call. The yield is the point — polls that hold the processor
// are slower than parking at once (EXPERIMENTS.md "Storage hand-off").
const backendSpin = 64

// arm parks the idle backend on the producer index and reports whether
// requests already wait (the lost-wakeup re-check: poll again instead of
// blocking). It also stores its tail in the ring's event word, as a
// virtio consumer arms: nothing on the guest side reads that word, but
// it makes "about to block" visible from outside the backend.
func (b *Backend) arm() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	ix := b.sh.Ring.Indexes()
	ix.StoreEvent(b.tail)
	ix.Park(b.park)
	return ix.LoadProd() != b.tail
}

// disarm withdraws the park while the backend actively polls, eliding
// the guest's pokes under sustained load, and moves the event word off
// the tail again.
func (b *Backend) disarm() {
	b.mu.Lock()
	defer b.mu.Unlock()
	ix := b.sh.Ring.Indexes()
	ix.StoreEvent(b.tail - 1)
	ix.Unpark()
}

// Start launches the service loop.
func (b *Backend) Start() {
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		var w nic.Waiter
		idle, armed := 0, false
		for {
			select {
			case <-b.stop:
				return
			default:
			}
			worked, err := b.Step()
			if err != nil {
				b.mu.Lock()
				b.dead = err
				b.mu.Unlock()
				return
			}
			if worked {
				if armed {
					b.disarm()
					armed = false
				}
				idle = 0
				continue
			}
			if idle++; idle <= backendSpin {
				runtime.Gosched()
				continue
			}
			if !armed && b.arm() {
				continue // work raced in while arming: poll again
			}
			armed = true
			if !w.Wait(b.stop, b.park, nil, nic.WaitBound) {
				return
			}
		}
	}()
}

// Stop halts the service loop.
func (b *Backend) Stop() {
	select {
	case <-b.stop:
	default:
		close(b.stop)
	}
	b.wg.Wait()
}

// Step serves every published-but-unserved request and acknowledges the
// whole sweep with ONE consumer-index store — the host-side half of
// batch amortization. Exported so tests (and adversarial harnesses) can
// drive the backend deterministically. Returns whether any request was
// served.
func (b *Backend) Step() (bool, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.polls++
	prod := b.sh.Ring.Indexes().LoadProd()
	if prod == b.tail {
		return false, nil
	}
	if prod-b.tail > b.sh.Ring.NSlots() {
		return false, fmt.Errorf("%w: producer overclaim", ErrProtocol)
	}
	for ; b.tail < prod; b.tail++ {
		if err := b.serveLocked(b.tail); err != nil {
			return false, err
		}
	}
	b.sh.Ring.Indexes().StoreCons(b.tail)
	return true, nil
}

// serveLocked executes the request in one slot and writes its
// epoch-stamped status in place.
//
//ciovet:locked
func (b *Backend) serveLocked(pos uint64) error {
	off := b.sh.Ring.SlotOff(pos)
	slots := b.sh.Ring.Slots()
	// Single snapshot of the request.
	opw := slots.U32(off + 0)
	lba := slots.U64(off + 8)
	h := shmem.Handle(slots.U64(off + 16))
	length := slots.U32(off + 24)

	if safering.KindEpoch(opw) != safering.EpochTag(b.sh.Epoch) {
		// A request stamped by another incarnation: an honest host never
		// serves it (and never writes through a possibly-recycled
		// handle). Stop, like any other protocol violation.
		return fmt.Errorf("%w: op word %#x from epoch %d (backend serves epoch %d)",
			ErrProtocol, opw, safering.KindEpoch(opw), safering.EpochTag(b.sh.Epoch))
	}

	status := StatusOK
	if length != blockdev.SectorSize || lba >= b.disk.Sectors() {
		status = StatusIOError
	} else {
		slabOff := b.sh.Data.PeerOffset(h)
		switch safering.KindCode(opw) {
		case OpWrite:
			b.sh.Data.Region().ReadAt(b.buf, slabOff)
			if err := b.disk.WriteSector(lba, b.buf); err != nil {
				status = StatusIOError
			}
		case OpRead:
			if err := b.disk.ReadSector(lba, b.buf); err != nil {
				status = StatusIOError
			} else {
				b.sh.Data.Region().WriteAt(b.buf, slabOff)
			}
		default:
			status = StatusIOError
		}
	}
	slots.SetU32(off+4, safering.KindWord(status, b.sh.Epoch))
	return nil
}
