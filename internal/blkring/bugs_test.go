package blkring

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"confio/internal/blockdev"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/shmem"
)

// withSpinHook installs the completion-spin test hook for one test.
func withSpinHook(t *testing.T, hook func()) {
	t.Helper()
	completionSpin = hook
	t.Cleanup(func() { completionSpin = nil })
}

// TestBackpressureNeverLapsConsumer is the regression test for the
// missing ring-full check: pre-engine submit staged at e.head without
// ever comparing it against the consumer index, so a host that lags lets
// the producer overwrite a slot the host still owns. The engine's Full
// check must keep prod-cons bounded by the slot count at every instant,
// even when the caller offers 3x more requests than the ring holds and
// the host only drains the ring when it is completely full.
func TestBackpressureNeverLapsConsumer(t *testing.T) {
	const slots = 4
	disk := blockdev.NewMemDisk(32)
	ep, err := New(slots, disk.Sectors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	idx := ep.Shared().Ring.Indexes()
	nslots := ep.Shared().Ring.NSlots()

	var maxLag uint64
	withSpinHook(t, func() {
		prod, cons := idx.LoadProd(), idx.LoadCons()
		if lag := prod - cons; lag > maxLag {
			maxLag = lag
		}
		// The laggard host: drains only when the producer cannot stage
		// another request without overwriting.
		if prod-cons >= nslots {
			if _, serr := be.Step(); serr != nil {
				t.Errorf("backend: %v", serr)
			}
		}
	})

	p := make([]byte, 12*blockdev.SectorSize)
	for i := range p {
		p[i] = byte(i * 7)
	}
	if err := ep.WriteSectors(3, p); err != nil {
		t.Fatal(err)
	}
	if maxLag > nslots {
		t.Fatalf("producer lapped the consumer: prod-cons reached %d on a %d-slot ring", maxLag, nslots)
	}
	got := make([]byte, len(p))
	if err := ep.ReadSectors(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("data corrupted under backpressure")
	}
}

// TestTimeoutQuarantinesStagingSlab is the regression test for the
// timeout use-after-free: pre-engine submit deferred lease.Free() on
// every path, so ErrTimeout returned the staging slab to the arena while
// the host still held its handle and might yet write it. Now a timeout
// fail-deads the endpoint and the slab stays checked out of the old
// arena — a later host write lands in quarantined memory nobody reads —
// until reincarnation discards arena and handle together.
func TestTimeoutQuarantinesStagingSlab(t *testing.T) {
	const slots = 8
	disk := blockdev.NewMemDisk(16)
	ep, err := New(slots, disk.Sectors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ep.SetClock(func() time.Time { return now })
	ep.SetTimeout(time.Second)
	ep.SetRecoveryPolicy(safering.RecoveryPolicy{Clock: func() time.Time { return now }})
	withSpinHook(t, func() { now = now.Add(300 * time.Millisecond) })

	sh := ep.Shared()
	werr := ep.WriteSector(5, make([]byte, blockdev.SectorSize))
	if !errors.Is(werr, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", werr)
	}
	if derr := ep.Dead(); !errors.Is(derr, ErrTimeout) {
		t.Fatalf("timeout must fail-dead the endpoint, Dead() = %v", derr)
	}

	// The slab of the never-completed request must still be checked out:
	// exactly slots-1 fresh allocations fit, not slots. (The pre-fix code
	// freed it on the timeout path, so all `slots` would succeed and the
	// host's stale handle would alias a future request's slab.)
	var probes []shmem.Handle
	for {
		h, aerr := sh.Data.Alloc()
		if aerr != nil {
			break
		}
		probes = append(probes, h)
	}
	free := len(probes)
	for _, h := range probes {
		_ = sh.Data.HandleFree(shmem.FreeMsg{H: h})
	}
	if free != slots-1 {
		t.Fatalf("arena had %d free slabs after timeout, want %d (staging slab not quarantined)", free, slots-1)
	}

	// The host completes the request late, into the dead incarnation:
	// harmless by construction — nothing ever reads that window again.
	off := sh.Ring.SlotOff(0)
	sh.Ring.Slots().SetU32(off+4, StatusOK)
	sh.Ring.Indexes().StoreCons(1)

	// Reincarnation discards the poisoned window (ring, arena, and the
	// quarantined slab with it) and the device comes back clean.
	now = now.Add(time.Minute)
	nsh, rerr := ep.Reincarnate()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if nsh.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", nsh.Epoch)
	}
	withSpinHook(t, nil)
	ep.SetClock(nil)
	be := NewBackend(nsh, disk)
	be.Start()
	defer be.Stop()
	want := sector(0x5A)
	if err := ep.WriteSector(2, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, blockdev.SectorSize)
	if err := ep.ReadSector(2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("post-reincarnation round trip corrupted")
	}
}

// TestFakeClockDrivesDeadline is the regression test for the wall-clock
// deadline: pre-engine submit polled time.Now() directly, so no fake
// clock could drive a storage timeout — a chaos scenario had to wait the
// real 5 seconds. With the injected clock, a 10-hour timeout fires in
// microseconds of wall time when the fake clock jumps.
func TestFakeClockDrivesDeadline(t *testing.T) {
	ep, err := New(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ep.SetClock(func() time.Time { return now })
	ep.SetTimeout(10 * time.Hour)
	spins := 0
	withSpinHook(t, func() {
		spins++
		if spins == 3 {
			now = now.Add(11 * time.Hour)
		}
	})

	start := time.Now()
	werr := ep.ReadSector(0, make([]byte, blockdev.SectorSize))
	if !errors.Is(werr, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", werr)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not driven by the injected clock: %v wall time", elapsed)
	}
}

// TestMeterNotInflatedBySlowHost is the regression test for metered
// validation inflation: pre-engine submit called meter.Check(1) on every
// completion-poll spin, so the modeled validation cost scaled with host
// latency instead of with validated reads. ReapIfMoved's unmetered
// equality pre-check must keep the count near one per validated load
// however many spins a slow host costs.
func TestMeterNotInflatedBySlowHost(t *testing.T) {
	var m platform.Meter
	disk := blockdev.NewMemDisk(16)
	ep, err := New(8, disk.Sectors(), &m)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	const slowSpins = 60
	spins := 0
	withSpinHook(t, func() {
		spins++
		if spins == slowSpins {
			if _, serr := be.Step(); serr != nil {
				t.Errorf("backend: %v", serr)
			}
		}
	})

	if err := ep.WriteSector(1, sector(9)); err != nil {
		t.Fatal(err)
	}
	if spins < slowSpins {
		t.Fatalf("host not slow enough to exercise the spin loop: %d spins", spins)
	}
	checks := m.Snapshot().Checks
	if checks == 0 {
		t.Fatal("validation not metered at all")
	}
	if checks >= slowSpins {
		t.Fatalf("metered %d checks over %d spins: validation cost scales with host latency again", checks, spins)
	}
}

// TestBatchAmortizesIndexPublishes: a 16-sector batch on a 16-slot ring
// costs ONE producer-index store, not 16 (the storage half of the PR 2
// amortization result).
func TestBatchAmortizesIndexPublishes(t *testing.T) {
	var m platform.Meter
	disk := blockdev.NewMemDisk(64)
	ep, err := New(16, disk.Sectors(), &m)
	if err != nil {
		t.Fatal(err)
	}
	be := NewBackend(ep.Shared(), disk)
	be.Start()
	defer be.Stop()

	p := make([]byte, 16*blockdev.SectorSize)
	before := m.Snapshot()
	if err := ep.WriteSectors(0, p); err != nil {
		t.Fatal(err)
	}
	d := m.Snapshot().Sub(before)
	if d.IndexPublishes != 1 {
		t.Fatalf("16-sector batch cost %d index publishes, want 1", d.IndexPublishes)
	}
}

// TestWatchdogCoversStorage: the generic watchdog ages blkring's request
// ring exactly like a network TX ring and fail-deads the device on a
// frozen consumer index, deterministically under a fake clock.
func TestWatchdogCoversStorage(t *testing.T) {
	ep, err := New(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ep.SetClock(func() time.Time { return now })
	ep.SetTimeout(time.Hour) // the watchdog, not the submit deadline, must kill
	wd := safering.NewWatchdog(safering.WatchdogConfig{
		Interval:   time.Hour, // never fires on its own; Poll is driven below
		StallAfter: 5 * time.Second,
		Clock:      func() time.Time { return now },
	}, ep)

	withSpinHook(t, func() {
		now = now.Add(time.Second)
		wd.Poll()
	})
	werr := ep.WriteSector(0, make([]byte, blockdev.SectorSize))
	if !errors.Is(werr, safering.ErrStalled) {
		t.Fatalf("want ErrStalled via watchdog, got %v", werr)
	}
	if wd.Stalls() != 1 {
		t.Fatalf("stalls = %d, want 1", wd.Stalls())
	}
	if derr := ep.Dead(); !errors.Is(derr, safering.ErrStalled) {
		t.Fatalf("Dead() = %v", derr)
	}
}

// TestEpochReplayFatal: after a reincarnation, a host replaying the OLD
// incarnation's completion pattern into the new ring (raw epoch-0 status
// words) is itself a fatal protocol violation — the epoch tag in every
// status word makes stale completions unreplayable.
func TestEpochReplayFatal(t *testing.T) {
	ep, err := New(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ep.SetClock(func() time.Time { return now })
	ep.SetTimeout(time.Second)
	ep.SetRecoveryPolicy(safering.RecoveryPolicy{Clock: func() time.Time { return now }})
	withSpinHook(t, func() { now = now.Add(time.Second) })
	if werr := ep.WriteSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(werr, ErrTimeout) {
		t.Fatalf("setup death: %v", werr)
	}
	now = now.Add(time.Minute)
	nsh, rerr := ep.Reincarnate()
	if rerr != nil {
		t.Fatal(rerr)
	}

	// Epoch-1 op words are stamped; the malicious host completes with a
	// RAW pre-reincarnation status word (epoch tag 0).
	withSpinHook(t, func() {
		idx := nsh.Ring.Indexes()
		if idx.LoadProd() == 1 && idx.LoadCons() == 0 {
			nsh.Ring.Slots().SetU32(nsh.Ring.SlotOff(0)+4, StatusOK) // stale epoch
			idx.StoreCons(1)
		}
	})
	werr := ep.ReadSector(0, make([]byte, blockdev.SectorSize))
	if !errors.Is(werr, ErrProtocol) {
		t.Fatalf("stale-epoch completion accepted: %v", werr)
	}
}

// TestBackendRefusesStaleEpochRequests: the honest backend side of the
// same contract — it never serves an op word stamped by another
// incarnation (it might write through a recycled handle).
func TestBackendRefusesStaleEpochRequests(t *testing.T) {
	ep, err := New(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh := ep.Shared()
	sh.Epoch = 3 // backend attached to a later incarnation
	be := NewBackend(sh, blockdev.NewMemDisk(16))
	off := sh.Ring.SlotOff(0)
	sh.Ring.Slots().SetU32(off+0, OpRead) // raw epoch-0 op word
	sh.Ring.Slots().SetU32(off+24, blockdev.SectorSize)
	sh.Ring.Indexes().StoreProd(1)
	if _, serr := be.Step(); !errors.Is(serr, ErrProtocol) {
		t.Fatalf("stale-epoch request served: %v", serr)
	}
}

// TestMultiRoundTripAndCrossQueueKill: the multi-queue device steers
// deterministically, serves batched spans across stripe boundaries, and
// fail-deads ALL queues when any one queue's host cheats.
func TestMultiRoundTripAndCrossQueueKill(t *testing.T) {
	disk := blockdev.NewMemDisk(256)
	m, err := NewMulti(4, 16, disk.Sectors(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var bes []*Backend
	for _, sh := range m.Shareds() {
		be := NewBackend(sh, disk)
		be.Start()
		bes = append(bes, be)
	}
	defer func() {
		for _, be := range bes {
			be.Stop()
		}
	}()

	// A span crossing several stripe boundaries.
	p := make([]byte, 40*blockdev.SectorSize)
	for i := range p {
		p[i] = byte(i * 13)
	}
	if err := m.WriteSectors(10, p); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(p))
	if err := m.ReadSectors(10, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, p) {
		t.Fatal("multi-queue span corrupted")
	}

	// Kill one queue with a forged consumer index; the whole device dies.
	qsh := m.Queues()[2].Shared()
	qsh.Ring.Indexes().StoreCons(qsh.Ring.Indexes().LoadProd() + 5)
	if err := m.Queues()[2].ReadSector(2*multiStripe, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrProtocol) {
		t.Fatalf("forged index on queue 2: %v", err)
	}
	if m.Dead() == nil {
		t.Fatal("device latch not killed")
	}
	// Sibling queues report the same death.
	if err := m.ReadSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, ErrDead) {
		t.Fatalf("sibling queue still alive: %v", err)
	}

	// Device-wide reincarnation revives every queue.
	m.SetRecoveryPolicy(safering.RecoveryPolicy{
		Clock: func() time.Time { return time.Unix(1_700_000_100, 0) },
	})
	shs, rerr := m.Reincarnate()
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, sh := range shs {
		be := NewBackend(sh, disk)
		be.Start()
		bes = append(bes, be)
	}
	if err := m.WriteSector(7, sector(7)); err != nil {
		t.Fatalf("post-reincarnation write: %v", err)
	}
	buf := make([]byte, blockdev.SectorSize)
	if err := m.ReadSector(7, buf); err != nil || !bytes.Equal(buf, sector(7)) {
		t.Fatalf("post-reincarnation read: %v", err)
	}
}

// TestConcurrentSectorIORace stresses concurrent submitters over one
// endpoint and over a multi-queue device under the race detector: the
// engine's single-lock discipline must serialize ring state while
// per-request completion records keep goroutines' results separate.
func TestConcurrentSectorIORace(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		disk := blockdev.NewMemDisk(128)
		ep, err := New(8, disk.Sectors(), nil)
		if err != nil {
			t.Fatal(err)
		}
		be := NewBackend(ep.Shared(), disk)
		be.Start()
		defer be.Stop()
		raceStress(t, ep, 8, 25)
	})
	t.Run("multi", func(t *testing.T) {
		disk := blockdev.NewMemDisk(128)
		m, err := NewMulti(4, 8, disk.Sectors(), nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range m.Shareds() {
			be := NewBackend(sh, disk)
			be.Start()
			defer be.Stop()
		}
		raceStress(t, m, 8, 25)
	})
}

func raceStress(t *testing.T, d blockdev.Disk, workers, iters int) {
	t.Helper()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := uint64(w) * 16 // disjoint 16-sector range per worker
			buf := make([]byte, blockdev.SectorSize)
			for i := 0; i < iters; i++ {
				want := sector(byte(w*31 + i))
				lba := base + uint64(i%16)
				if err := d.WriteSector(lba, want); err != nil {
					t.Errorf("worker %d write: %v", w, err)
					return
				}
				if err := d.ReadSector(lba, buf); err != nil {
					t.Errorf("worker %d read: %v", w, err)
					return
				}
				if !bytes.Equal(buf, want) {
					t.Errorf("worker %d: sector %d corrupted", w, lba)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQuarantineGovernsStorageRecovery: blkring shares safering's
// admission policy — backoff quarantine, then permanence once the death
// budget is blown.
func TestQuarantineGovernsStorageRecovery(t *testing.T) {
	ep, err := New(8, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Unix(1_700_000_000, 0)
	ep.SetClock(func() time.Time { return now })
	ep.SetTimeout(time.Second)
	ep.SetRecoveryPolicy(safering.RecoveryPolicy{
		BaseBackoff:  time.Hour,
		MaxBackoff:   2 * time.Hour,
		DeathBudget:  2,
		BudgetWindow: 100 * time.Hour,
		Clock:        func() time.Time { return now },
	})
	withSpinHook(t, func() { now = now.Add(time.Second) })

	die := func() {
		t.Helper()
		if werr := ep.WriteSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(werr, ErrTimeout) {
			t.Fatalf("death setup: %v", werr)
		}
	}
	die()
	if _, rerr := ep.Reincarnate(); rerr != nil { // first death admitted
		t.Fatal(rerr)
	}
	die()
	if _, rerr := ep.Reincarnate(); !errors.Is(rerr, safering.ErrQuarantine) {
		t.Fatalf("want ErrQuarantine inside backoff, got %v", rerr)
	}
	now = now.Add(3 * time.Hour)
	if _, rerr := ep.Reincarnate(); rerr != nil { // second death admitted after backoff
		t.Fatal(rerr)
	}
	die()
	now = now.Add(10 * time.Hour)
	if _, rerr := ep.Reincarnate(); !errors.Is(rerr, safering.ErrBudgetExhausted) {
		t.Fatalf("want ErrBudgetExhausted past the budget, got %v", rerr)
	}
}
