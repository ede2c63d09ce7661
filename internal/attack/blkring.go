package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"confio/internal/blkring"
	"confio/internal/blockdev"
	"confio/internal/cryptdisk"
	"confio/internal/platform"
	"confio/internal/safering"
	"confio/internal/shmem"
)

// mkBlk builds one attacked storage device: 8 slots over a 64-sector
// memory disk. host selects whether a live backend serves the ring;
// attacks that forge completions themselves leave it detached.
func mkBlk(host bool) (*blkring.Endpoint, *blkring.Backend, *blockdev.MemDisk) {
	ep, err := blkring.New(8, 64, nil)
	if err != nil {
		panic(err)
	}
	disk := blockdev.NewMemDisk(64)
	var be *blkring.Backend
	if host {
		be = blkring.NewBackend(ep.Shared(), disk)
		be.Start()
	}
	return ep, be, disk
}

// killBlk forges a consumer-index overclaim and returns the fatal error
// the guest's next submission observed.
func killBlk(ep *blkring.Endpoint) error {
	ep.Shared().Ring.Indexes().StoreCons(ep.Shared().Ring.NSlots() * 4)
	return ep.WriteSector(0, make([]byte, blockdev.SectorSize))
}

// awaitStaged spins until the guest's blocked submission has published a
// request (so the attacking host can answer it), bailing out if the
// submission returns before the attack lands.
func awaitStaged(ep *blkring.Endpoint, errCh <-chan error) error {
	for {
		select {
		case err := <-errCh:
			return fmt.Errorf("submission returned early: %v", err)
		default:
		}
		if head, _, alive := ep.WatchProgress(); !alive || head > 0 {
			return nil
		}
		runtime.Gosched()
	}
}

// completeSlot plays a host answering the request in one slot: it fills
// the request's own staging slab with data (for reads), then publishes a
// status word and bumps the consumer index. The status word is the
// attacker's to corrupt.
func completeSlot(ep *blkring.Endpoint, idx uint64, data []byte, statusWord uint32) {
	sh := ep.Shared()
	off := sh.Ring.SlotOff(idx)
	if data != nil {
		h := shmem.Handle(sh.Ring.Slots().U64(off + 16))
		sh.Data.Region().WriteAt(data, sh.Data.PeerOffset(h))
	}
	sh.Ring.Slots().SetU32(off+4, statusWord)
	sh.Ring.Indexes().StoreCons(idx + 1)
}

// blkWakeSpam is the attack the consumer-side park adds surface for: a
// submitter waiting for its completion is parked on the request ring's
// consumer index, and every host store to that word pokes it. Re-storing
// the current value buys wake-ups and nothing else — no completion, no
// metered check, and the request still dies at its deadline with its
// slab quarantined; storing a value past the producer head buys one
// validated load, which fail-deads the device like any other overclaim.
func blkWakeSpam(tr string) Result {
	const slots = 8
	meter := &platform.Meter{}
	ep, err := blkring.New(slots, 64, meter)
	if err != nil {
		panic(err)
	}
	var now atomic.Int64 // the fake clock: read by the waiting submitter, advanced here
	ep.SetClock(func() time.Time { return time.Unix(1_700_000_000, now.Load()) })
	ep.SetTimeout(2 * time.Second)
	sh := ep.Shared()
	errCh := make(chan error, 1)
	go func() { errCh <- ep.WriteSector(1, frame(blockdev.SectorSize, 1)) }()
	if err := awaitStaged(ep, errCh); err != nil {
		return compromised(AtkBlkWakeSpam, tr, err.Error())
	}
	before := meter.Snapshot()
	ix := sh.Ring.Indexes()
	for i := 0; i < 100000; i++ {
		ix.StoreCons(ix.LoadCons())
	}
	select {
	case err := <-errCh:
		return compromised(AtkBlkWakeSpam, tr, fmt.Sprintf("empty pokes ended the request: %v", err))
	default:
	}
	if after := meter.Snapshot(); after.Checks != before.Checks {
		return compromised(AtkBlkWakeSpam, tr, fmt.Sprintf("empty pokes were metered: %d checks", after.Checks-before.Checks))
	}
	now.Add(int64(3 * time.Second))
	if err := <-errCh; !errors.Is(err, blkring.ErrTimeout) {
		return compromised(AtkBlkWakeSpam, tr, fmt.Sprintf("spammed request did not die at its deadline: %v", err))
	}
	if free := sh.Data.FreeSlabs(); free != slots-1 {
		return compromised(AtkBlkWakeSpam, tr, fmt.Sprintf("%d free slabs after the timeout, want %d: staging slab not quarantined", free, slots-1))
	}

	// Garbage: the poke makes the parked submitter look, and what it
	// finds goes through the index check.
	ep, _, _ = mkBlk(false)
	go func() { errCh <- ep.ReadSector(2, make([]byte, blockdev.SectorSize)) }()
	if err := awaitStaged(ep, errCh); err != nil {
		return compromised(AtkBlkWakeSpam, tr, err.Error())
	}
	ep.Shared().Ring.Indexes().StoreCons(5)
	if err := <-errCh; !errors.Is(err, blkring.ErrProtocol) {
		return compromised(AtkBlkWakeSpam, tr, fmt.Sprintf("consumer index past the head accepted: %v", err))
	}
	return blocked(AtkBlkWakeSpam, tr, "a poke buys one unmetered compare: empty wakes complete nothing, the deadline still kills, garbage index fatal")
}

// mkVolume builds the whole attacked storage stack: an n-sector cryptdisk
// volume over the ring over a live backend serving host. stop ends the
// backend.
func mkVolume(n int, host blockdev.Disk) (cd *cryptdisk.CryptDisk, meta *cryptdisk.Meta, stop func()) {
	ep, err := blkring.New(8, uint64(n), nil)
	if err != nil {
		panic(err)
	}
	be := blkring.NewBackend(ep.Shared(), host)
	be.Start()
	if cd, meta, err = cryptdisk.Format(ep, n, []byte("attacked-volume"), nil); err != nil {
		panic(err)
	}
	return cd, meta, be.Stop
}

// merkleSiblingSwap mounts the double-fetch rollback on the full storage
// stack (cryptdisk over the ring over a live backend): sector 1 holds an
// old secret, then a new one. While the guest's write of sector 0 is in
// the host's hands — after its Merkle path verified, before the tree
// update — the host puts sector 1's leaf, version and ciphertext back to
// the old state. An update that re-reads the sibling from the untrusted
// node table signs the rollback into the new root.
func merkleSiblingSwap(tr string) Result {
	const n = 8
	platter := blockdev.NewMemDisk(n)
	host := &blockdev.RacingDisk{Disk: platter}
	cd, meta, stop := mkVolume(n, host)
	defer stop()
	oldSecret, newSecret := frame(blockdev.SectorSize, 0xA0), frame(blockdev.SectorSize, 0xB0)
	if err := cd.WriteSector(1, oldSecret); err != nil {
		return compromised(AtkMerkleSibSwap, tr, "setup: "+err.Error())
	}
	oldMeta, oldCT := meta.Snapshot(1), make([]byte, blockdev.SectorSize)
	if err := platter.ReadSector(1, oldCT); err != nil {
		panic(err)
	}
	if err := cd.WriteSector(1, newSecret); err != nil {
		return compromised(AtkMerkleSibSwap, tr, "setup: "+err.Error())
	}
	host.OnWrite = func() {
		meta.Restore(oldMeta)
		_ = platter.WriteSector(1, oldCT)
	}
	if err := cd.WriteSector(0, frame(blockdev.SectorSize, 0xC0)); err != nil {
		return compromised(AtkMerkleSibSwap, tr, "the guest's own write failed: "+err.Error())
	}
	got := make([]byte, blockdev.SectorSize)
	err := cd.ReadSector(1, got)
	if err == nil && bytes.Equal(got, oldSecret) {
		return compromised(AtkMerkleSibSwap, tr, "rolled-back sibling laundered into the root: old plaintext read with a valid path")
	}
	return verdictFromFatal(AtkMerkleSibSwap, tr, err, cryptdisk.ErrIntegrity,
		compromised(AtkMerkleSibSwap, tr, fmt.Sprintf("read of the rolled-back sector returned %v", err)))
}

// sectorTransplant is the attack the per-sector AEAD tag adds surface
// for, on the full storage stack: the host copies sector 2's ciphertext,
// tag and version onto sector 5 and recomputes sector 5's leaf and every
// ancestor in the untrusted node table (the leaf is an unkeyed hash of
// host-held values, so it can), leaving a consistent tree over the
// transplant. The guest must refuse sector 5: its root is not the
// host's.
func sectorTransplant(tr string) Result {
	const n, from, to = 8, 2, 5
	platter := blockdev.NewMemDisk(n)
	cd, meta, stop := mkVolume(n, platter)
	defer stop()
	secret := frame(blockdev.SectorSize, 0xA0)
	if err := cd.WriteSector(from, secret); err != nil {
		return compromised(AtkSectorTransplnt, tr, "setup: "+err.Error())
	}
	if err := cd.WriteSector(to, frame(blockdev.SectorSize, 0xB0)); err != nil {
		return compromised(AtkSectorTransplnt, tr, "setup: "+err.Error())
	}
	ct := make([]byte, blockdev.SectorSize)
	if err := platter.ReadSector(from, ct); err != nil {
		panic(err)
	}
	_ = platter.WriteSector(to, ct)
	src, dst := meta.Snapshot(from), meta.Snapshot(to)
	meta.TamperVersion(to, src.Version)
	meta.TamperTag(to, src.Tag)
	leaf := binary.BigEndian.AppendUint64(append([]byte{}, src.Tag[:]...), to)
	h := sha256.Sum256(binary.BigEndian.AppendUint64(leaf, src.Version))
	for i := n + to; i > 1; i /= 2 {
		meta.TamperNode(i, h)
		sib := dst.Nodes[i^1]
		if i%2 == 0 {
			h = sha256.Sum256(append(h[:], sib[:]...))
		} else {
			h = sha256.Sum256(append(sib[:], h[:]...))
		}
	}
	meta.TamperNode(1, h)

	got := make([]byte, blockdev.SectorSize)
	err := cd.ReadSector(to, got)
	if err == nil || bytes.Contains(got, secret[:64]) {
		return compromised(AtkSectorTransplnt, tr, fmt.Sprintf("sector %d's contents served at sector %d: %v", from, to, err))
	}
	return verdictFromFatal(AtkSectorTransplnt, tr, err, cryptdisk.ErrIntegrity,
		compromised(AtkSectorTransplnt, tr, fmt.Sprintf("read of the transplanted sector returned %v", err)))
}

// blkringScenarios attacks the storage ring. It is the same generic
// engine as the network ring, so the expectation asserted by the tests
// is the same: every class Blocked (or surfaceless), none Compromised.
func blkringScenarios() []Scenario {
	const tr = "blkring"
	var out []Scenario

	out = append(out,
		Scenario{AtkIndexOverclaim, tr, func() Result {
			ep, _, _ := mkBlk(false)
			err := killBlk(ep)
			return verdictFromFatal(AtkIndexOverclaim, tr, err, blkring.ErrProtocol,
				compromised(AtkIndexOverclaim, tr, "overclaim accepted"))
		}},
		Scenario{AtkIndexRewind, tr, func() Result {
			ep, be, _ := mkBlk(true)
			if err := ep.WriteSector(1, frame(blockdev.SectorSize, 1)); err != nil {
				return compromised(AtkIndexRewind, tr, "setup: "+err.Error())
			}
			be.Stop()
			// The host rewinds the consumer index below progress the
			// guest already reaped.
			ep.Shared().Ring.Indexes().StoreCons(0)
			err := ep.ReadSector(1, make([]byte, blockdev.SectorSize))
			return verdictFromFatal(AtkIndexRewind, tr, err, blkring.ErrProtocol,
				compromised(AtkIndexRewind, tr, "rewind accepted"))
		}},
		Scenario{AtkStatusCorrupt, tr, func() Result {
			ep, _, _ := mkBlk(false)
			errCh := make(chan error, 1)
			go func() { errCh <- ep.WriteSector(2, frame(blockdev.SectorSize, 2)) }()
			if err := awaitStaged(ep, errCh); err != nil {
				return compromised(AtkStatusCorrupt, tr, err.Error())
			}
			// The host completes with a garbage status word: neither a
			// valid status code nor this incarnation's epoch tag.
			completeSlot(ep, 0, nil, 0xDEAD)
			err := <-errCh
			return verdictFromFatal(AtkStatusCorrupt, tr, err, blkring.ErrProtocol,
				compromised(AtkStatusCorrupt, tr, "corrupt status word accepted"))
		}},
		Scenario{AtkReplay, tr, func() Result {
			ep, be, _ := mkBlk(true)
			if err := ep.WriteSector(3, frame(blockdev.SectorSize, 3)); err != nil {
				return compromised(AtkReplay, tr, "setup: "+err.Error())
			}
			be.Stop()
			// The host replays the completion signal for the request the
			// guest already consumed: the replayed index bump overruns
			// the producer head.
			ep.Shared().Ring.Indexes().StoreCons(2)
			err := ep.ReadSector(3, make([]byte, blockdev.SectorSize))
			return verdictFromFatal(AtkReplay, tr, err, blkring.ErrProtocol,
				compromised(AtkReplay, tr, "replayed completion accepted"))
		}},
		Scenario{AtkLengthLie, tr, func() Result {
			ep, _, _ := mkBlk(false)
			want := frame(blockdev.SectorSize, 4)
			got := make([]byte, blockdev.SectorSize)
			errCh := make(chan error, 1)
			go func() { errCh <- ep.ReadSector(4, got) }()
			if err := awaitStaged(ep, errCh); err != nil {
				return compromised(AtkLengthLie, tr, err.Error())
			}
			// The host rewrites the staged length word to a giant value,
			// then completes. The guest authored the geometry and never
			// re-reads it: the lie must be dead state.
			sh := ep.Shared()
			sh.Ring.Slots().SetU32(sh.Ring.SlotOff(0)+24, 1<<30)
			completeSlot(ep, 0, want, safering.KindWord(blkring.StatusOK, sh.Epoch))
			if err := <-errCh; err != nil {
				return compromised(AtkLengthLie, tr, "honest completion rejected: "+err.Error())
			}
			if !bytes.Equal(got, want) {
				return compromised(AtkLengthLie, tr, "lied length changed what the guest read")
			}
			return blocked(AtkLengthLie, tr, "geometry is guest-authored and single-fetched; the rewrite is dead state")
		}},
		Scenario{AtkDoubleFetch, tr, func() Result {
			ep, _, _ := mkBlk(false)
			want := frame(blockdev.SectorSize, 5)
			got := make([]byte, blockdev.SectorSize)
			errCh := make(chan error, 1)
			go func() { errCh <- ep.ReadSector(5, got) }()
			if err := awaitStaged(ep, errCh); err != nil {
				return compromised(AtkDoubleFetch, tr, err.Error())
			}
			// The host rewrites the op and LBA words between staging and
			// completion, hoping the guest re-fetches them when the
			// completion lands.
			sh := ep.Shared()
			off := sh.Ring.SlotOff(0)
			sh.Ring.Slots().SetU32(off+0, safering.KindWord(blkring.OpWrite, sh.Epoch))
			sh.Ring.Slots().SetU64(off+8, 63)
			completeSlot(ep, 0, want, safering.KindWord(blkring.StatusOK, sh.Epoch))
			if err := <-errCh; err != nil {
				return compromised(AtkDoubleFetch, tr, "completion rejected: "+err.Error())
			}
			if !bytes.Equal(got, want) {
				return compromised(AtkDoubleFetch, tr, "request words re-fetched after the host's rewrite")
			}
			return blocked(AtkDoubleFetch, tr, "completion uses the parked request, not the mutable slot words")
		}},
		Scenario{AtkForgedHandle, tr, func() Result {
			ep, _, _ := mkBlk(false)
			want := frame(blockdev.SectorSize, 6)
			got := make([]byte, blockdev.SectorSize)
			errCh := make(chan error, 1)
			go func() { errCh <- ep.ReadSector(6, got) }()
			if err := awaitStaged(ep, errCh); err != nil {
				return compromised(AtkForgedHandle, tr, err.Error())
			}
			// The host swaps the staged handle word for a forged one,
			// then completes (writing data through the slab the ORIGINAL
			// handle names, as an honest host would have). The guest's
			// copy-out must come from its parked lease, not the forgery.
			sh := ep.Shared()
			off := sh.Ring.SlotOff(0)
			orig := shmem.Handle(sh.Ring.Slots().U64(off + 16))
			sh.Data.Region().WriteAt(want, sh.Data.PeerOffset(orig))
			sh.Ring.Slots().SetU64(off+16, uint64(orig)|0xFFFFFFFF00000000)
			completeSlot(ep, 0, nil, safering.KindWord(blkring.StatusOK, sh.Epoch))
			if err := <-errCh; err != nil {
				return compromised(AtkForgedHandle, tr, "completion rejected: "+err.Error())
			}
			if !bytes.Equal(got, want) {
				return compromised(AtkForgedHandle, tr, "forged handle word redirected the guest's copy-out")
			}
			return blocked(AtkForgedHandle, tr, "handles are guest-allocated and parked; the slot word is never re-read")
		}},
		Scenario{AtkNotifStorm, tr, func() Result {
			return na(AtkNotifStorm, tr, "no doorbell: each end parks on the index word the other stores")
		}},
		Scenario{AtkEventIdxLie, tr, func() Result {
			return na(AtkEventIdxLie, tr, "no submission bell: nothing on the guest side reads the event word")
		}},
		Scenario{AtkBlkWakeSpam, tr, func() Result { return blkWakeSpam(tr) }},
		Scenario{AtkMerkleSibSwap, tr, func() Result { return merkleSiblingSwap(tr) }},
		Scenario{AtkSectorTransplnt, tr, func() Result { return sectorTransplant(tr) }},
		Scenario{AtkFeatureTOCTOU, tr, func() Result {
			return na(AtkFeatureTOCTOU, tr, "zero-negotiation: no control plane exists")
		}},
		Scenario{AtkStaleMemory, tr, func() Result {
			ep, _, _ := mkBlk(true)
			secret := frame(blockdev.SectorSize, 0x5E)
			if err := ep.WriteSector(7, secret); err != nil {
				return compromised(AtkStaleMemory, tr, "setup: "+err.Error())
			}
			// The lease was freed on completion; the host-visible staging
			// arena must hold no trace of the secret sector.
			reg := ep.Shared().Data.Region()
			if bytes.Contains(reg.Slice(0, reg.Size()), secret[:16]) {
				return compromised(AtkStaleMemory, tr, "freed staging slab not scrubbed")
			}
			return blocked(AtkStaleMemory, tr, "staging slabs scrubbed on free")
		}},
		Scenario{AtkQueueCrossKill, tr, func() Result {
			m, err := blkring.NewMulti(4, 8, 64, nil)
			if err != nil {
				panic(err)
			}
			q2 := m.Queues()[2]
			if err := killBlk(q2); !errors.Is(err, blkring.ErrProtocol) {
				return compromised(AtkQueueCrossKill, tr, "overclaim on queue 2 accepted")
			}
			for q, ep := range m.Queues() {
				if err := ep.WriteSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, blkring.ErrDead) {
					return compromised(AtkQueueCrossKill, tr,
						fmt.Sprintf("queue %d still accepts I/O after sibling violation", q))
				}
			}
			return blocked(AtkQueueCrossKill, tr, "violation on one queue fail-deads the whole device")
		}},
		Scenario{AtkEpochReplay, tr, func() Result {
			ep, _, _ := mkBlk(false)
			if err := killBlk(ep); !errors.Is(err, blkring.ErrProtocol) {
				return compromised(AtkEpochReplay, tr, "kill not detected")
			}
			if _, err := ep.Reincarnate(); err != nil {
				return compromised(AtkEpochReplay, tr, "reincarnate: "+err.Error())
			}
			errCh := make(chan error, 1)
			go func() { errCh <- ep.ReadSector(1, make([]byte, blockdev.SectorSize)) }()
			if err := awaitStaged(ep, errCh); err != nil {
				return compromised(AtkEpochReplay, tr, err.Error())
			}
			// The host replays a completion recorded before the death:
			// the raw status word carries the dead epoch's tag.
			completeSlot(ep, 0, nil, blkring.StatusOK)
			err := <-errCh
			return verdictFromFatal(AtkEpochReplay, tr, err, blkring.ErrProtocol,
				compromised(AtkEpochReplay, tr, "stale-epoch completion accepted after rebirth"))
		}},
		Scenario{AtkReattachStorm, tr, func() Result {
			ep, _, _ := mkBlk(false)
			clk := &stormClock{t: time.Unix(1_700_000_000, 0)}
			ep.SetClock(clk.Now)
			ep.SetRecoveryPolicy(safering.RecoveryPolicy{
				BaseBackoff:  10 * time.Millisecond,
				MaxBackoff:   time.Second,
				JitterFrac:   0.2,
				DeathBudget:  4,
				BudgetWindow: time.Minute,
				Clock:        clk.Now,
				Seed:         42,
			})
			sawQuarantine := false
			for round := 0; round < 32; round++ {
				if err := killBlk(ep); !errors.Is(err, blkring.ErrProtocol) {
					return compromised(AtkReattachStorm, tr, "kill not detected")
				}
				_, err := ep.Reincarnate()
				for errors.Is(err, safering.ErrQuarantine) {
					sawQuarantine = true
					clk.Advance(2 * time.Second)
					_, err = ep.Reincarnate()
				}
				if errors.Is(err, safering.ErrBudgetExhausted) {
					if !sawQuarantine {
						return compromised(AtkReattachStorm, tr, "no quarantine before budget exhaustion")
					}
					clk.Advance(10 * time.Minute)
					if _, err := ep.Reincarnate(); !errors.Is(err, safering.ErrBudgetExhausted) {
						return compromised(AtkReattachStorm, tr, "patient host revived a budget-dead device")
					}
					if err := ep.WriteSector(0, make([]byte, blockdev.SectorSize)); !errors.Is(err, blkring.ErrDead) {
						return compromised(AtkReattachStorm, tr, "budget-dead device accepted I/O")
					}
					return blocked(AtkReattachStorm, tr, "storm quarantined, then permanent fail-dead (bounded resets)")
				}
				if err != nil {
					return compromised(AtkReattachStorm, tr, "reincarnate: "+err.Error())
				}
			}
			return compromised(AtkReattachStorm, tr, "storm never exhausted the death budget")
		}},
	)
	return out
}
