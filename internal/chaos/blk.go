package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/platform"
	"confio/internal/safering"
)

// BlkDevice is one blkring storage device under chaos: the guest
// endpoint, an optional in-process host backend over a memory disk, the
// fake clock driving its quarantine, the Poll-driven watchdog that
// bounds a host which stops completing, and the windows of dead
// incarnations (kept for inertness probes).
type BlkDevice struct {
	Clock *Clock
	Meter *platform.Meter
	EP    *blkring.Endpoint
	WD    *safering.Watchdog
	Disk  *blockdev.MemDisk
	BE    *blkring.Backend
	Old   []*blkring.Shared
}

// NewBlkDevice builds a chaos storage device. host selects whether a
// live backend serves the ring; stall scenarios leave it detached.
func NewBlkDevice(host bool) *BlkDevice {
	const slots, sectors = 8, 64
	clk := NewClock()
	meter := &platform.Meter{}
	ep, err := blkring.New(slots, sectors, meter)
	if err != nil {
		panic(err) // deployment-fixed config: cannot fail
	}
	ep.SetRecoveryPolicy(Policy(clk))
	d := &BlkDevice{
		Clock: clk,
		Meter: meter,
		EP:    ep,
		WD:    watchdog(clk, ep),
		Disk:  blockdev.NewMemDisk(sectors),
	}
	if host {
		d.Attach()
	}
	return d
}

// Attach starts a host backend on the current incarnation's window.
func (d *BlkDevice) Attach() {
	d.BE = blkring.NewBackend(d.EP.Shared(), d.Disk)
	d.BE.Start()
}

// Detach stops the host backend, if one is running. The guest's next
// submission will block until the watchdog declares the stall.
func (d *BlkDevice) Detach() {
	if d.BE != nil {
		d.BE.Stop()
		d.BE = nil
	}
}

// Verify drives n batched write+read round trips through the device and
// checks every byte. Each pass is one multi-sector span, so the ring's
// batched submission path is what chaos recovery is verified against.
func (d *BlkDevice) Verify(n int) error {
	const span = 4
	buf := make([]byte, span*blockdev.SectorSize)
	for i := 0; i < n; i++ {
		lba := uint64((i * span) % 32)
		want := pattern(span*blockdev.SectorSize, byte(i)|1)
		if err := d.EP.WriteSectors(lba, want); err != nil {
			return fmt.Errorf("batch write %d: %w", i, err)
		}
		if err := d.EP.ReadSectors(lba, buf); err != nil {
			return fmt.Errorf("batch read %d: %w", i, err)
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("batch %d corrupted on disk round trip", i)
		}
	}
	return nil
}

// Kill detaches the host and forges a consumer-index overclaim; the
// guest's next submission must observe it and die. Returns the error the
// guest saw.
func (d *BlkDevice) Kill() error {
	d.Detach()
	d.EP.Shared().Ring.Indexes().StoreCons(d.EP.Shared().Ring.NSlots() * 4)
	return d.EP.WriteSector(0, make([]byte, blockdev.SectorSize))
}

// Reincarnate recovers the device through the quarantine. The old
// window is retained for inertness probes; the caller re-Attaches a
// host when the scenario wants one.
func (d *BlkDevice) Reincarnate() error {
	old := d.EP.Shared()
	if _, err := d.EP.Reincarnate(); err != nil {
		return err
	}
	d.Old = append(d.Old, old)
	return nil
}

// WaitStaged spins until the guest's blocked submission has published
// work into the ring (so a fault can be injected under it), bailing out
// if the submission returns early.
func (d *BlkDevice) WaitStaged(errCh <-chan error) error { return d.waitOwed(errCh, 1) }

// waitOwed spins until the guest has published n requests the host has
// not consumed, bailing out if the submission returns early.
func (d *BlkDevice) waitOwed(errCh <-chan error, n uint64) error {
	ix := d.EP.Shared().Ring.Indexes()
	for ix.LoadProd()-ix.LoadCons() < n {
		select {
		case err := <-errCh:
			return fmt.Errorf("submission returned before the fault landed: %v", err)
		default:
		}
		runtime.Gosched()
	}
	return nil
}

// Returned waits for a blocked submission's result for at most five
// seconds of real time, as Await waits for state: ok is false when the
// submitter is still blocked, which a row reports as its verdict instead
// of hanging the test binary.
func Returned(errCh <-chan error) (err error, ok bool) {
	select {
	case err = <-errCh:
		return err, true
	case <-time.After(5 * time.Second):
		return nil, false
	}
}

// counters fills the meter fields of a Result.
func (d *BlkDevice) counters(r Result) Result {
	c := d.Meter.Snapshot()
	r.Epoch = d.EP.Epoch()
	r.Deaths, r.Reincarnations, r.Stalls = c.Deaths, c.Reincarnations, c.StallsDetected
	return r
}

// BlkMultiDevice is a multi-queue blkring storage device under chaos:
// the storage Rig, on the same Life as the NIC's.
type BlkMultiDevice struct {
	Clock *Clock
	Meter *platform.Meter
	M     *blkring.Multi
	Disk  *blockdev.MemDisk
	BEs   []*blkring.Backend
}

// blkMultiSectors is the chaos volume, and blkMultiStripe blkring.Multi's
// steering granularity: two stripes per queue of a four-queue device, so
// a whole-volume span crosses every ring and lba q*stripe rides queue q.
const blkMultiSectors, blkMultiStripe = 128, 16

// NewBlkMultiDevice builds a chaos storage device with the given queue
// count and a live backend on every queue.
func NewBlkMultiDevice(queues int) *BlkMultiDevice {
	clk := NewClock()
	meter := &platform.Meter{}
	m, err := blkring.NewMulti(queues, 8, blkMultiSectors, meter)
	if err != nil {
		panic(err) // deployment-fixed config: cannot fail
	}
	m.SetRecoveryPolicy(Policy(clk))
	d := &BlkMultiDevice{Clock: clk, Meter: meter, M: m, Disk: blockdev.NewMemDisk(blkMultiSectors)}
	d.attach()
	return d
}

// attach starts a host backend on every queue's current window.
func (d *BlkMultiDevice) attach() {
	for _, sh := range d.M.Shareds() {
		be := blkring.NewBackend(sh, d.Disk)
		be.Start()
		d.BEs = append(d.BEs, be)
	}
}

// Detach stops every host backend.
func (d *BlkMultiDevice) Detach() {
	for _, be := range d.BEs {
		be.Stop()
	}
	d.BEs = nil
}

func (d *BlkMultiDevice) Queues() int        { return len(d.M.Queues()) }
func (d *BlkMultiDevice) Epoch(q int) uint32 { return d.M.Queues()[q].Epoch() }
func (d *BlkMultiDevice) clock() *Clock      { return d.Clock }

// Verify writes and reads back the whole volume through the device's
// striped batch path, so every queue carries each round.
func (d *BlkMultiDevice) Verify(n int) error {
	buf := make([]byte, d.M.Sectors()*blockdev.SectorSize)
	for i := 0; i < n; i++ {
		want := pattern(len(buf), byte(i)|1)
		if err := d.M.WriteSectors(0, want); err != nil {
			return fmt.Errorf("volume write %d: %w", i, err)
		}
		if err := d.M.ReadSectors(0, buf); err != nil {
			return fmt.Errorf("volume read %d: %w", i, err)
		}
		if !bytes.Equal(buf, want) {
			return fmt.Errorf("volume round trip %d corrupted", i)
		}
	}
	for q, be := range d.BEs {
		if err := be.Dead(); err != nil {
			return fmt.Errorf("honest guest poisoned queue %d's backend: %w", q, err)
		}
	}
	return nil
}

// KillQueue detaches the host and forges a consumer-index overclaim on
// queue q; that queue's next submission must observe it and die.
func (d *BlkMultiDevice) KillQueue(q int) error {
	d.Detach()
	ep := d.M.Queues()[q]
	ep.Shared().Ring.Indexes().StoreCons(ep.Shared().Ring.NSlots() * 4)
	if err := ep.WriteSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, blkring.ErrProtocol) {
		return fmt.Errorf("overclaim not fatal: %v", err)
	}
	if d.M.Dead() == nil {
		return errors.New("queue died, device did not")
	}
	return nil
}

// Refuses checks that the device turns I/O steered to queue q away as
// dead.
func (d *BlkMultiDevice) Refuses(q int) error {
	lba, sec := uint64(q*blkMultiStripe), make([]byte, blockdev.SectorSize)
	if err := d.M.ReadSector(lba, sec); !errors.Is(err, blkring.ErrDead) {
		return fmt.Errorf("read: %v", err)
	}
	if err := d.M.WriteSector(lba, sec); !errors.Is(err, blkring.ErrDead) {
		return fmt.Errorf("write: %v", err)
	}
	return nil
}

// ReviveQueue asks one queue to reincarnate alone.
func (d *BlkMultiDevice) ReviveQueue(q int) error {
	_, err := d.M.Queues()[q].Reincarnate()
	return err
}

// Reincarnate recovers the whole device and attaches fresh backends.
func (d *BlkMultiDevice) Reincarnate() error {
	if _, err := d.M.Reincarnate(); err != nil {
		return err
	}
	d.attach()
	return nil
}

func (d *BlkMultiDevice) counters(r Result) Result {
	c := d.Meter.Snapshot()
	r.Epoch = d.Epoch(0)
	r.Deaths, r.Reincarnations, r.Stalls = c.Deaths, c.Reincarnations, c.StallsDetected
	return r
}

// runBlkIndexCorrupt: the host overclaims the storage ring's consumer
// index. The device must die, reincarnate cleanly, and scribbling on the
// dead incarnation's window must not reach the live one.
func runBlkIndexCorrupt() Result {
	const fault = "blk-index-corrupt"
	d := NewBlkDevice(true)
	defer d.Detach()
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "healthy baseline failed: "+err.Error())
	}
	if err := d.Kill(); !errors.Is(err, blkring.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("overclaim not fatal: %v", err))
	}
	if err := d.EP.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, blkring.ErrDead) {
		return corrupt(fault, fmt.Sprintf("dead device still accepts I/O: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	d.Attach()
	// The host that kept the dead window keeps scribbling on it.
	for _, sh := range d.Old {
		sh.Ring.Indexes().StoreCons(sh.Ring.NSlots() * 8)
		sh.Ring.Indexes().StoreProd(sh.Ring.NSlots() * 8)
	}
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "storage overclaim fatal; fresh epoch verified; old window inert"})
}

// runBlkHostStall: the guest publishes storage work and the host
// freezes. The same watchdog that guards the network ring must declare
// the stall on the storage ring (the Endpoint is just another Watched),
// unblocking the stuck submission fatally. The dead device keeps the
// stall as its cause, and the staged slab the host still holds stays
// quarantined until reincarnation discards it with the old arena.
func runBlkHostStall() Result {
	const fault = "blk-host-stall"
	d := NewBlkDevice(false)
	defer d.Detach()
	errCh := make(chan error, 1)
	go func() { errCh <- d.EP.WriteSector(3, pattern(blockdev.SectorSize, 7)) }()
	if err := d.WaitStaged(errCh); err != nil {
		return corrupt(fault, err.Error())
	}
	d.WD.Poll() // obligation observed, clock starts
	d.Clock.Advance(6 * time.Second)
	d.WD.Poll() // frozen past the bound: stall declared
	err, ok := Returned(errCh)
	if !ok {
		return corrupt(fault, "blocked write still blocked 5 s after the bound passed: no stall declared")
	}
	if !errors.Is(err, blkring.ErrDead) || !errors.Is(err, safering.ErrStalled) {
		return corrupt(fault, fmt.Sprintf("blocked write not killed by the stall: %v", err))
	}
	if d.WD.Stalls() != 1 {
		return corrupt(fault, fmt.Sprintf("watchdog counted %d stalls, want 1", d.WD.Stalls()))
	}
	if err := d.EP.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, blkring.ErrDead) || !errors.Is(err, safering.ErrStalled) {
		return corrupt(fault, fmt.Sprintf("dead-op error lost the stall cause: %v", err))
	}
	sh := d.EP.Shared()
	if free, want := sh.Data.FreeSlabs(), int(sh.Ring.NSlots())-1; free != want {
		return corrupt(fault, fmt.Sprintf("%d free slabs after the stall, want %d: staging slab not quarantined", free, want))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "reincarnation refused: "+err.Error())
	}
	d.Attach()
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "new epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "frozen storage host declared fatal by the shared watchdog; staged slab quarantined until rebirth"})
}

// runBlkSlowHost: the host is slow but keeps making progress. It serves
// one ring-full every 4 fake seconds, under the watchdog's 5-second
// bound, across one write of three ring-fulls: 12 fake seconds in all,
// more than twice the bound. Every completion restarts the watchdog's
// clock, so the device must absorb the slowness: bytes verified, no
// stall, the original incarnation alive.
func runBlkSlowHost() Result {
	const fault = "blk-slow-host"
	d := NewBlkDevice(false)
	defer d.Detach()
	slots := d.EP.Shared().Ring.NSlots()
	want := pattern(3*int(slots)*blockdev.SectorSize, 11)
	errCh := make(chan error, 1)
	go func() { errCh <- d.EP.WriteSectors(0, want) }()
	be := blkring.NewBackend(d.EP.Shared(), d.Disk)
	for round := 0; round < 3; round++ {
		if err := d.waitOwed(errCh, slots); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d: %v", round, err))
		}
		d.WD.Poll()
		d.Clock.Advance(4 * time.Second)
		d.WD.Poll()
		if _, err := be.Step(); err != nil {
			return corrupt(fault, fmt.Sprintf("round %d: honest guest poisoned the backend: %v", round, err))
		}
	}
	if err, ok := Returned(errCh); !ok || err != nil {
		return corrupt(fault, fmt.Sprintf("slow but progressing host's write: returned %v, err %v", ok, err))
	}
	if n := d.WD.Stalls(); n != 0 || d.EP.Dead() != nil {
		return corrupt(fault, fmt.Sprintf("progressing host declared stalled: %d stalls, death %v", n, d.EP.Dead()))
	}
	d.BE = be
	be.Start()
	got := make([]byte, len(want))
	if err := d.EP.ReadSectors(0, got); err != nil {
		return corrupt(fault, "read back: "+err.Error())
	}
	if !bytes.Equal(got, want) {
		return corrupt(fault, "slow write corrupted on disk round trip")
	}
	return d.counters(Result{Fault: fault, Outcome: Absorbed,
		Detail: "a ring-full per 4 fake seconds for 12: each completion restarted the watchdog's clock; bytes verified, no stall"})
}

// BlkEpochReplay: the device dies and reincarnates, and the host
// replays a completion recorded from the dead epoch into the reborn
// ring. The raw epoch-0 status word must be fatally rejected — then a
// second admitted reincarnation must come back clean. d starts with its
// host attached.
func BlkEpochReplay(d *BlkDevice) Result {
	const fault = "blk-epoch-replay"
	if err := d.Verify(1); err != nil {
		return corrupt(fault, "healthy baseline failed: "+err.Error())
	}
	if err := d.Kill(); !errors.Is(err, blkring.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("kill setup: %v", err))
	}
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "first reincarnation refused: "+err.Error())
	}
	// No honest host this time: the replaying host completes the reborn
	// ring's first request with the status word it recorded at epoch 0.
	errCh := make(chan error, 1)
	go func() { errCh <- d.EP.ReadSector(1, make([]byte, blockdev.SectorSize)) }()
	if err := d.WaitStaged(errCh); err != nil {
		return corrupt(fault, err.Error())
	}
	sh := d.EP.Shared()
	sh.Ring.Slots().SetU32(sh.Ring.SlotOff(0)+4, blkring.StatusOK) // raw word: epoch tag 0
	sh.Ring.Indexes().StoreCons(1)
	if err, ok := Returned(errCh); !ok || !errors.Is(err, blkring.ErrProtocol) {
		return corrupt(fault, fmt.Sprintf("stale-epoch completion: returned %v, err %v", ok, err))
	}
	d.Clock.Advance(2 * time.Second) // serve the quarantine from death #2
	if err := d.Reincarnate(); err != nil {
		return corrupt(fault, "second reincarnation refused: "+err.Error())
	}
	d.Attach()
	if err := d.Verify(2); err != nil {
		return corrupt(fault, "post-replay epoch traffic: "+err.Error())
	}
	return d.counters(Result{Fault: fault, Outcome: CleanEpoch,
		Detail: "epoch tag rejected the replayed completion fatally"})
}
